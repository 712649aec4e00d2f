import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from ngrc import (
    IntegrationError,
    double_scroll,
    integrate,
    integrate_noisy,
    lorenz63,
    on_attractor_state,
)
from ngrc import systems
from ngrc.systems import DOUBLE_SCROLL_PARAMS, IntegrationConfig

RUNS = Path(__file__).resolve().parent.parent / "runs"


def lorenz_rhs_by_hand(state):
    x, y, z = state
    return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 * z / 3.0])


def double_scroll_rhs_by_hand(state):
    v1, v2, i = state
    p = DOUBLE_SCROLL_PARAMS
    dv = v1 - v2
    g = dv / p["r2"] + 2.0 * p["ir"] * math.sinh(p["alpha"] * dv)
    return np.array([v1 / p["r1"] - g, g - i, v2 - p["r4"] * i])


def test_lorenz_rhs_hand_values():
    system = lorenz63()
    assert np.allclose(system.rhs(np.array([1.0, 1.0, 1.0])),
                       [0.0, 26.0, 1.0 - 8.0 / 3.0])
    state = np.array([2.0, -1.5, 30.0])
    assert np.allclose(system.rhs(state), lorenz_rhs_by_hand(state))


def test_double_scroll_rhs_hand_values():
    system = double_scroll()
    for state in ([0.5, -0.2, 1.0], [1.0, 1.0, 1.0], [-2.0, 0.3, -0.7]):
        assert np.allclose(system.rhs(np.array(state)),
                           double_scroll_rhs_by_hand(np.array(state)), rtol=1e-12)


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_double_scroll_rhs_is_odd(state):
    system = double_scroll()
    state = np.array(state)
    assert np.allclose(system.rhs(-state), -system.rhs(state),
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("factory, spread", [(lorenz63, 40.0), (double_scroll, 3.0)])
def test_rhs_gives_the_same_bits_for_lists_vectors_and_columns(factory, spread):
    # integrate steps on lists of floats; scipy passes 1-D arrays and
    # integrate_noisy a (3, paths) array, so all three must round alike
    rhs = factory().rhs
    states = np.random.default_rng(7).uniform(-spread, spread, size=(3, 1000))
    columns = rhs(states)
    for j, state in enumerate(states.T):
        from_list = rhs(state.tolist())
        assert type(from_list) is list
        assert all(type(v) is float for v in from_list)
        expected = columns[:, j].tobytes()
        assert np.array(from_list).tobytes() == expected
        assert rhs(state).tobytes() == expected


def test_system_registry():
    assert lorenz63().lyapunov_time == pytest.approx(1.1)
    assert double_scroll().lyapunov_time == pytest.approx(7.81)


def test_lyapunov_time_units(ds_task):
    # 10 Lyapunov times of double-scroll span 78.1 time units
    assert ds_task.n_test == int(round(10.0 * 7.81 / 0.25))


def test_integration_grid_exact():
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 10.0),
                               initial_state=np.ones(3))
    grid = config.grid()
    assert grid.shape == (401,)
    assert grid[0] == 0.0
    assert grid[-1] == 0.025 * 400
    assert grid[-1] <= 10.0 or np.isclose(grid[-1], 10.0)


def test_integrate_returns_uniform_series():
    system = lorenz63()
    config = IntegrationConfig(dt=0.05, t_span=(0.0, 2.0),
                               initial_state=np.array([1.0, 1.0, 1.0]))
    series = integrate(system, config)
    assert series.n_samples == 41
    assert series.dt == 0.05
    assert np.array_equal(series.values[0], [1.0, 1.0, 1.0])
    assert np.all(np.isfinite(series.values))


def test_integrate_deterministic():
    system = lorenz63()
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 5.0),
                               initial_state=np.array([1.0, 2.0, 3.0]))
    a = integrate(system, config)
    b = integrate(system, config)
    assert np.array_equal(a.values, b.values)


def test_integrate_converges_under_tolerance_halving():
    system = lorenz63()
    x0 = np.array([-5.0, 4.0, 25.0])
    for method in ("RK23", "DOP853"):
        kw = dict(dt=0.025, t_span=(0.0, 1.0), initial_state=x0, method=method)
        coarse = integrate(system, IntegrationConfig(rtol=1e-8, atol=1e-10, **kw))
        fine = integrate(system, IntegrationConfig(rtol=5e-9, atol=5e-11, **kw))
        assert np.abs(coarse.values[-1] - fine.values[-1]).max() < 1e-4


def test_integrate_noisy_requires_seed():
    system = lorenz63()
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 1.0),
                               initial_state=np.ones(3), noise_rms=1.0)
    with pytest.raises(ValueError):
        integrate_noisy(system, config)


def test_integrate_noisy_reduces_to_deterministic_at_zero_noise():
    system = lorenz63()
    kw = dict(dt=0.025, t_span=(0.0, 2.0), initial_state=np.array([1.0, 1.0, 1.0]))
    clean = integrate(system, IntegrationConfig(rtol=1e-10, atol=1e-12, **kw))
    [heun] = integrate_noisy(system, IntegrationConfig(seed=0, noise_rms=0.0, **kw))
    # fixed-step second-order propagation vs tight adaptive reference
    assert np.abs(clean.values - heun.values).max() < 1e-2


def test_integrate_noisy_seed_reproducibility():
    system = lorenz63()
    kw = dict(dt=0.025, t_span=(0.0, 2.0), initial_state=np.ones(3), noise_rms=1.0)
    [a] = integrate_noisy(system, IntegrationConfig(seed=11, **kw))
    [b] = integrate_noisy(system, IntegrationConfig(seed=11, **kw))
    [c] = integrate_noisy(system, IntegrationConfig(seed=12, **kw))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_noisy_lorenz_component_rms_matches_published_levels():
    # published run quotes component RMS near (7.9, 9.0, 8.6) at noise_rms=1
    system = lorenz63()
    x0 = on_attractor_state(system, 25.0)
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 100.0), initial_state=x0,
                               seed=5, noise_rms=1.0)
    [noisy] = integrate_noisy(system, config)
    stds = noisy.values.std(axis=0)
    assert np.all(np.abs(stds / np.array([7.9, 9.0, 8.6]) - 1.0) < 0.15)


def test_on_attractor_state_lands_in_attractor_box():
    state = on_attractor_state(lorenz63(), 25.0)
    assert np.all(np.isfinite(state))
    assert abs(state[0]) < 25 and abs(state[1]) < 30 and 0 < state[2] < 50


@pytest.mark.parametrize("method", ["RK23", "DOP853"])
def test_on_attractor_state_ends_at_the_transient_time(method):
    # 25.004 is not rounded to a grid step
    system = lorenz63()
    state = on_attractor_state(system, 25.004, rtol=1e-3, atol=1e-6, method=method)
    assert not np.array_equal(state, on_attractor_state(system, 25.0, rtol=1e-3, atol=1e-6,
                                                        method=method))
    if method == "RK23":
        # RK23 steps freely, so the end state equals the last sample of any
        # grid that ends at 25.004
        config = IntegrationConfig(dt=25.004 / 4, t_span=(0.0, 25.004),  # from (1, 1, 1)
                                   initial_state=np.ones(3), rtol=1e-3, atol=1e-6)
        assert np.array_equal(state, integrate(system, config).values[-1])
    else:
        # DOP853 lands on every grid time, so its steps depend on the grid:
        # the end state is scipy's on the one-interval grid
        config = IntegrationConfig(dt=25.004, t_span=(0.0, 25.004),  # from (1, 1, 1)
                                   initial_state=np.ones(3), rtol=1e-3, atol=1e-6,
                                   method=method)
        success, values, _ = by_solve_ivp(counted(system.rhs), config)
        assert success
        assert np.array_equal(state, values[-1])
    with pytest.raises(ValueError, match="positive finite"):
        on_attractor_state(system, math.inf)


def test_integration_config_validation():
    cases = [
        (dict(dt=0.0), "dt"),
        (dict(dt=math.nan), "dt"),
        (dict(dt=math.inf), "dt"),
        # the step count 1 / 5e-324 overflows to infinity
        (dict(dt=5e-324), "dt"),
        (dict(t_span=(1.0, 0.0)), "span"),
        (dict(t_span=(0.0, math.nan)), "t_span"),
        (dict(t_span=(-math.inf, 1.0)), "t_span"),
        (dict(rtol=0.0), "tolerances"),
        (dict(atol=math.nan), "tolerances"),
        # an infinite tolerance accepts every step; the message names which one
        (dict(rtol=math.inf), "tolerances: rtol"),
        (dict(atol=math.inf), "tolerances: atol"),
        (dict(noise_rms=math.nan), "noise_rms"),
        (dict(noise_rms=math.inf), "noise_rms"),
        (dict(substeps=2.5), "substeps"),
        (dict(substeps=0), "substeps"),
    ]
    for kw, field in cases:
        with pytest.raises(ValueError, match=field):
            IntegrationConfig(**{"dt": 0.1, "t_span": (0.0, 1.0),
                                 "initial_state": np.ones(3), **kw})


def test_integrate_rejects_nonfinite_initial_state():
    system = lorenz63()
    with pytest.raises((ValueError, IntegrationError)):
        config = IntegrationConfig(dt=0.1, t_span=(0.0, 1.0),
                                   initial_state=np.array([np.nan, 0.0, 0.0]))
        integrate(system, config)


def test_integration_config_needs_one_step():
    with pytest.raises(ValueError, match="no step"):
        IntegrationConfig(dt=0.1, t_span=(0.0, 0.04), initial_state=np.ones(3))
    config = IntegrationConfig(dt=0.1, t_span=(0.0, 0.06), initial_state=np.ones(3))
    assert np.array_equal(config.grid(), [0.0, 0.1])


@pytest.mark.parametrize("state", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                   [0.0, 0.0, -np.inf], [[1.0, 2.0, 3.0]]])
def test_integration_config_rejects_bad_initial_state(state):
    # one check at construction covers RK23, DOP853 and the noisy ensemble
    for kw in (dict(), dict(method="DOP853"), dict(seed=0, noise_rms=1.0)):
        with pytest.raises(ValueError, match="initial_state"):
            IntegrationConfig(dt=0.1, t_span=(0.0, 1.0), initial_state=np.array(state), **kw)


def test_dop853_needs_fewer_rhs_evaluations_at_tight_tolerance():
    calls = {"n": 0}

    def counting_rhs(state):
        calls["n"] += 1
        return lorenz63().rhs(state)

    system = dataclasses.replace(lorenz63(), rhs=counting_rhs)
    evals = {}
    for method in ("RK23", "DOP853"):
        calls["n"] = 0
        integrate(system, IntegrationConfig(dt=0.025, t_span=(0.0, 10.0),
                                            initial_state=np.array([-5.0, 4.0, 25.0]),
                                            method=method))
        evals[method] = calls["n"]
    assert evals["DOP853"] < evals["RK23"] / 4


def test_integration_method_is_validated():
    kw = dict(dt=0.1, t_span=(0.0, 1.0), initial_state=np.ones(3))
    assert IntegrationConfig(**kw).method == "RK23"
    assert IntegrationConfig(method="DOP853", **kw).method == "DOP853"
    with pytest.raises(ValueError, match="method"):
        IntegrationConfig(method="RK45", **kw)


def heun_path_by_hand(system, config, child):
    """One noisy path stepped alone on 1-D states, drawing per substep."""
    rng = np.random.default_rng(child)
    h = config.dt / config.substeps
    sigma = config.noise_rms / np.sqrt(h)
    state = config.initial_state.copy()
    values = [state]
    for _ in range(len(config.grid()) - 1):
        for _ in range(config.substeps):
            xi = rng.normal(0.0, sigma, size=system.dim)
            k1 = system.rhs(state) + xi
            k2 = system.rhs(state + h * k1) + xi
            state = state + 0.5 * h * (k1 + k2)
        values.append(state)
    return np.array(values)


@pytest.mark.parametrize("factory", [lorenz63, double_scroll])
def test_integrate_noisy_paths_are_independent_of_batch_size(factory):
    system = factory()
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 1.0),
                               initial_state=np.array([0.5, -0.2, 1.0]),
                               seed=3, noise_rms=1.0, substeps=5)
    ten = integrate_noisy(system, config, paths=10)
    four = integrate_noisy(system, config, paths=4)
    assert len(ten) == 10 and len(four) == 4
    children = np.random.SeedSequence(3).spawn(10)
    for i, series in enumerate(ten):
        assert series.values.shape == (41, 3)
        assert np.array_equal(series.values, heun_path_by_hand(system, config, children[i]))
        if i < 4:
            assert np.array_equal(series.values, four[i].values)
    # distinct paths draw distinct noise
    assert not np.array_equal(ten[0].values, ten[1].values)


def test_integrate_noisy_rejects_empty_ensemble():
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 1.0), initial_state=np.ones(3),
                               seed=0, noise_rms=1.0)
    with pytest.raises(ValueError, match="paths"):
        integrate_noisy(lorenz63(), config, paths=0)


def test_integrate_noisy_names_the_first_diverging_path():
    system = lorenz63()
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 2.0), initial_state=np.ones(3),
                               seed=0, noise_rms=1e3)
    children = np.random.SeedSequence(0).spawn(3)
    with np.errstate(all="ignore"):
        finite = [np.isfinite(heun_path_by_hand(system, config, c)).all(axis=1)
                  for c in children]
    first_bad = [int(np.argmin(f)) if not f.all() else len(f) for f in finite]
    path = int(np.argmin(first_bad))
    assert 0 < first_bad[path] < len(config.grid())
    time = config.grid()[first_bad[path]]
    with np.errstate(all="ignore"), pytest.raises(IntegrationError) as err:
        integrate_noisy(system, config, paths=3)
    assert str(err.value) == f"noisy path {path} of lorenz63 is not finite at t = {time:g}"


def counted(rhs, finite_calls=math.inf):
    """``rhs`` counting its calls in ``.calls``; NaN after ``finite_calls`` calls."""
    def wrapper(state):
        wrapper.calls += 1
        return rhs(state) if wrapper.calls <= finite_calls else np.full(len(state), np.nan)
    wrapper.calls = 0
    return wrapper


def by_solve_ivp(rhs, config):
    """scipy's solution on the config's grid, as (success, values, calls of ``rhs``).

    RK23 is ``solve_ivp(t_eval=grid)``. DOP853 is scipy's DOP853 solver
    whose ``t_bound`` is moved to each grid time in turn, and which is
    stepped until it lands there.
    """
    grid = config.grid()
    fun = lambda t, y: rhs(y)  # noqa: E731
    if config.method == "RK23":
        sol = solve_ivp(fun, (grid[0], grid[-1]), config.initial_state, method="RK23",
                        t_eval=grid, rtol=config.rtol, atol=config.atol)
        return sol.success, sol.y.T, rhs.calls
    solver = DOP853(fun, grid[0], config.initial_state, grid[-1], rtol=config.rtol,
                    atol=config.atol)
    values = [solver.y]
    for bound in grid[1:]:
        solver.t_bound, solver.status = bound, "running"
        while solver.status == "running":
            solver.step()
        if solver.status == "failed":
            return False, np.array(values), rhs.calls
        values.append(solver.y)
    return True, np.array(values), rhs.calls


@settings(max_examples=20)
@example(method="RK23", factory=lorenz63, dt=0.01, tolerances=(1e-3, 1e-6), t0=0.0,
         stretch=1.0, offset=0.0)
@example(method="RK23", factory=lorenz63, dt=0.025, tolerances=(1e-8, 1e-10), t0=37.5,
         stretch=0.77, offset=0.1)
@example(method="RK23", factory=double_scroll, dt=0.25, tolerances=(1e-8, 1e-10), t0=99.9,
         stretch=1.0, offset=-0.3)
@example(method="DOP853", factory=lorenz63, dt=0.01, tolerances=(1e-3, 1e-6), t0=0.0,
         stretch=1.0, offset=0.0)
@example(method="DOP853", factory=lorenz63, dt=0.025, tolerances=(1e-8, 1e-10), t0=37.5,
         stretch=0.77, offset=0.1)
@example(method="DOP853", factory=double_scroll, dt=0.25, tolerances=(1e-8, 1e-10), t0=99.9,
         stretch=1.0, offset=-0.3)
@given(method=st.sampled_from(["RK23", "DOP853"]),
       factory=st.sampled_from([lorenz63, double_scroll]),
       dt=st.sampled_from([0.01, 0.025, 0.05, 0.25]),
       tolerances=st.sampled_from([(1e-3, 1e-6), (1e-8, 1e-10)]),
       t0=st.floats(0.0, 100.0),
       stretch=st.floats(0.0, 1.0),
       offset=st.floats(-0.5, 0.5))
def test_rk23_stepper_matches_solve_ivp_bit_for_bit(method, factory, dt, tolerances, t0,
                                                   stretch, offset):
    # both pairs of the stepping loop; log-uniform spans from a single step
    # (0.6 dt) up to 30 time units, most not a whole number of dt steps
    system = factory()
    start = {"lorenz63": (-5.0, 4.0, 25.0), "double_scroll": (0.5, -0.2, 1.0)}[system.name]
    span = 0.6 * dt * (30.0 / (0.6 * dt)) ** stretch
    rtol, atol = tolerances
    config = IntegrationConfig(dt=dt, t_span=(t0, t0 + span),
                               initial_state=np.array(start) + offset, rtol=rtol, atol=atol,
                               method=method)
    rhs = counted(system.rhs)
    series = integrate(dataclasses.replace(system, rhs=rhs), config)
    success, values, oracle_calls = by_solve_ivp(counted(system.rhs), config)
    assert success
    assert np.array_equal(series.values, values)
    assert rhs.calls == oracle_calls


def test_rk23_sampling_in_chunks_matches_solve_ivp(monkeypatch):
    # Lorenz at dt 0.01 and rtol 1e-3: the 39 steps that sample hold 1 to 5
    # grid times each, so a chunk of 2 or 3 steps mixes sample counts.
    # Chunks of 1 and 3 end exactly full; a chunk of 2 leaves one step over.
    system = lorenz63()
    config = IntegrationConfig(dt=0.01, t_span=(0.0, 1.0),
                               initial_state=np.array([-5.0, 4.0, 25.0]), rtol=1e-3, atol=1e-6)
    success, expected, oracle_calls = by_solve_ivp(counted(system.rhs), config)
    assert success
    flushed = []
    sample_steps = systems._sample_steps

    def counting_sample_steps(P, K, *rest):
        flushed.append(len(K))
        sample_steps(P, K, *rest)

    monkeypatch.setattr(systems, "_sample_steps", counting_sample_steps)
    for chunk, last in ((1, 1), (2, 1), (3, 3)):
        monkeypatch.setattr(systems, "_DENSE_CHUNK", chunk)
        flushed.clear()
        rhs = counted(system.rhs)
        series = integrate(dataclasses.replace(system, rhs=rhs), config)
        assert np.array_equal(series.values, expected)
        assert rhs.calls == oracle_calls
        assert sum(flushed) == 39
        assert flushed == [chunk] * (len(flushed) - 1) + [last]


def test_rk23_stepper_raises_when_the_field_turns_nan():
    for method in ("RK23", "DOP853"):
        config = IntegrationConfig(dt=0.025, t_span=(0.0, 5.0),
                                   initial_state=np.array([-5.0, 4.0, 25.0]), rtol=1e-3,
                                   atol=1e-6, method=method)
        rhs = counted(lorenz_rhs_by_hand, finite_calls=300)
        with pytest.raises(IntegrationError, match="step size"):
            integrate(dataclasses.replace(lorenz63(), rhs=rhs), config)
        # scipy gives up at the same call
        success, _, oracle_calls = by_solve_ivp(counted(lorenz_rhs_by_hand, finite_calls=300),
                                                config)
        assert not success
        assert rhs.calls == oracle_calls

        # at the start scipy's first step size is NaN and it never returns
        at_start = dataclasses.replace(lorenz63(),
                                       rhs=counted(lorenz_rhs_by_hand, finite_calls=0))
        with pytest.raises(IntegrationError, match="not finite"):
            integrate(at_start, config)


@pytest.mark.parametrize("task_name, run", [("lorenz_task", "forecast-lorenz"),
                                            ("ds_task", "forecast-doublescroll")])
def test_ground_truth_matches_tracked_runs(task_name, run, request):
    # the session fixtures integrate the canonical trajectories; their
    # training window and the test window after it are tracked bit-exact
    task = request.getfixturevalue(task_name)
    n_train = task.train.n_samples
    for name, series in (("train", task.train),
                         ("truth", task.mother.segment(n_train, n_train + task.n_test))):
        tracked = np.loadtxt(RUNS / run / f"{name}.csv", delimiter=",")
        assert np.array_equal(series.times, tracked[:, 0])
        assert np.array_equal(series.values, tracked[:, 1:])


def test_dop853_ground_truth_matches_tracked_run():
    # noise-lorenz's reference trajectory: on-attractor start after a
    # 25-unit transient, then 10,001 samples of dt 0.025, all on DOP853 at
    # rtol 1e-8; its component stds are tracked bit-exact, and its RHS
    # calls, scipy's at this full length, are pinned
    system = lorenz63()
    x0 = on_attractor_state(system, 25.0, rtol=1e-8, atol=1e-10, method="DOP853")
    config = IntegrationConfig(dt=0.025, t_span=(0.0, 10000 * 0.025), initial_state=x0,
                               rtol=1e-8, atol=1e-10, method="DOP853")
    rhs = counted(system.rhs)
    reference = integrate(dataclasses.replace(system, rhs=rhs), config)
    assert reference.n_samples == 10001
    assert rhs.calls == 129_530
    summary = json.loads((RUNS / "noise-lorenz" / "summary.json").read_text())
    assert reference.values.std(axis=0).tolist() == summary["noise_free_component_std"]

import warnings
from math import ceil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import (
    CostParams,
    ReservoirError,
    ReservoirParams,
    TimeSeries,
    build_reservoir,
    estimate_cost,
    feature_length,
    quadratic_readout_features,
    reservoir_run,
    training_cost_ngrc,
    training_cost_rc,
)
from ngrc.baseline import COMPLEXITY_CASES
from ngrc.cli import TASKS, resolve_config


def test_adjacency_sparsity_and_spectral_radius():
    params = ReservoirParams(n_nodes=60, sigma_r=0.05, spectral_radius=0.9, seed=3)
    reservoir = build_reservoir(params, input_dim=3)
    assert np.count_nonzero(reservoir.adjacency) == ceil(0.05 * 60 * 60)
    radius = np.abs(np.linalg.eigvals(reservoir.adjacency)).max()
    assert radius == pytest.approx(0.9, abs=1e-8)
    assert reservoir.input_weights.shape == (60, 3)
    assert np.abs(reservoir.input_weights).max() <= 1.0


def test_build_reservoir_seed_determinism():
    a = build_reservoir(ReservoirParams(n_nodes=40, seed=9), input_dim=2)
    b = build_reservoir(ReservoirParams(n_nodes=40, seed=9), input_dim=2)
    c = build_reservoir(ReservoirParams(n_nodes=40, seed=10), input_dim=2)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.input_weights, b.input_weights)
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_reservoir_params_validation():
    with pytest.raises(ValueError):
        ReservoirParams(n_nodes=0)
    with pytest.raises(ValueError):
        ReservoirParams(n_nodes=10, gamma=1.5)
    with pytest.raises(ValueError):
        ReservoirParams(n_nodes=10, sigma_r=0.0)
    with pytest.raises(ValueError):
        ReservoirParams(n_nodes=10, activation="relu")
    with pytest.raises(ValueError, match="n_nodes"):
        ReservoirParams(n_nodes=2.5)
    with pytest.raises(ValueError, match="n_nodes must be an integer"):
        ReservoirParams(n_nodes=True)
    for field in ("spectral_radius", "input_scale"):
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=field):
                ReservoirParams(n_nodes=10, **{field: bad})
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="bias must be finite"):
            ReservoirParams(n_nodes=10, bias=bad)


def test_reservoir_run_reports_the_first_overflowing_step():
    # a linear reservoir of spectral radius 5 grows about fivefold per step
    params = ReservoirParams(n_nodes=20, spectral_radius=5.0, sigma_r=0.5,
                             activation="linear", seed=0)
    reservoir = build_reservoir(params, input_dim=1)
    series = TimeSeries(dt=1.0, values=np.ones((600, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow on the way is not a warning
        with pytest.raises(ReservoirError, match="not finite at step") as exc:
            reservoir_run(reservoir, series)
    step = int(str(exc.value).rsplit(" ", 1)[1])
    shorter = reservoir_run(reservoir, series.segment(0, step))
    assert np.isfinite(shorter).all()


@given(st.integers(0, 2**31 - 1))
def test_tanh_states_stay_bounded(seed):
    params = ReservoirParams(n_nodes=20, gamma=1.0, sigma_r=0.4,
                             activation="tanh", seed=seed)
    reservoir = build_reservoir(params, input_dim=2)
    rng = np.random.default_rng(seed)
    series = TimeSeries(dt=1.0, values=rng.normal(scale=5.0, size=(30, 2)))
    states = reservoir_run(reservoir, series)
    # with gamma = 1 every state is a tanh output
    assert np.abs(states).max() <= 1.0


def test_linear_reservoir_matches_manual_recursion():
    params = ReservoirParams(n_nodes=15, gamma=0.7, sigma_r=0.4,
                             activation="linear", bias=0.3, seed=4)
    reservoir = build_reservoir(params, input_dim=3)
    rng = np.random.default_rng(5)
    series = TimeSeries(dt=0.5, values=rng.normal(size=(25, 3)))
    states = reservoir_run(reservoir, series)

    r = np.zeros(15)
    for j in range(25):
        drive = reservoir.adjacency @ r + reservoir.input_weights @ series.values[j] + 0.3
        r = (1.0 - 0.7) * r + 0.7 * drive
        # matrix-matrix vs matrix-vector BLAS kernels differ in the last ulp
        assert np.allclose(states[:, j], r, rtol=1e-12, atol=1e-12)
        r = states[:, j]


def test_reservoir_run_rejects_width_mismatch():
    reservoir = build_reservoir(ReservoirParams(n_nodes=10, sigma_r=0.5), input_dim=3)
    series = TimeSeries(dt=1.0, values=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        reservoir_run(reservoir, series)


def test_quadratic_readout_features_layout():
    states = np.array([[1.0, -2.0], [3.0, 0.5]])
    feats = quadratic_readout_features(states)
    assert feats.shape == (4, 2)
    assert np.array_equal(feats, np.vstack([states, states**2]))


@pytest.mark.filterwarnings("error")
def test_quadratic_readout_features_report_the_first_overflowing_column():
    # finite states whose squares overflow are a numerical failure, not a warning
    states = np.array([[1.0, 2.0, 1e200, 1e300], [1.0, -1e160, 3.0, 1.0]])
    with pytest.raises(ReservoirError, match="not finite at column 1$"):
        quadratic_readout_features(states)
    assert np.isfinite(quadratic_readout_features(states[:, :1])).all()


def test_training_cost_hand_cases():
    rc = CostParams(m_warmup=10, m_train=100, n_total=50, n_nodes=20, sigma_r=0.1)
    # 0.1 * 110 * 400 + 100 * 2500
    assert training_cost_rc(rc) == pytest.approx(0.1 * 110 * 400 + 100 * 2500)
    ng = CostParams(m_train=100, n_total=28, n_nonlinear=21)
    assert training_cost_ngrc(ng) == pytest.approx(100 * 28**2 + 100 * 21)


def test_estimate_cost_is_one_for_identical_dense_free_setups():
    shared = dict(m_warmup=0, m_train=200, n_total=30)
    ng = CostParams(n_nonlinear=0, **shared)
    rc = CostParams(n_nodes=30, sigma_r=0.0, **shared)
    assert estimate_cost(ng, rc) == 1.0


def test_cost_linear_in_training_length():
    ng = CostParams(m_train=100, n_total=28, n_nonlinear=21)
    ng2 = CostParams(m_train=200, n_total=28, n_nonlinear=21)
    assert training_cost_ngrc(ng2) == pytest.approx(2 * training_cost_ngrc(ng))
    rc = CostParams(m_warmup=0, m_train=100, n_total=50, n_nodes=20, sigma_r=0.1)
    rc2 = CostParams(m_warmup=0, m_train=200, n_total=50, n_nodes=20, sigma_r=0.1)
    assert training_cost_rc(rc2) == pytest.approx(2 * training_cost_rc(rc))


def test_estimate_cost_rejects_zero_ngrc_cost():
    with pytest.raises(ValueError):
        estimate_cost(CostParams(), CostParams(n_nodes=10, sigma_r=0.1, m_train=5))


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(m_train=-1)
    with pytest.raises(ValueError):
        CostParams(sigma_r=-0.5)
    # NaN fails every comparison, so a bare `< 0` check would let it through
    for name in ("m_warmup", "m_train", "n_total", "n_nonlinear", "n_nodes", "sigma_r"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
                CostParams(**{name: value})


@pytest.mark.parametrize("case, task", zip(COMPLEXITY_CASES,
                                           ["forecast-lorenz", "forecast-doublescroll"]))
def test_complexity_ngrc_sizes_match_the_forecast_tasks(case, task):
    # the cost table's NG-RC column is the forecast task's default model, so a
    # default changed in one place cannot leave the table stale
    config = resolve_config({"task": task})
    system = TASKS[task].system()
    spec = config.feature_spec(system.dim)
    n_total = feature_length(spec)
    assert case["system"] == system.name
    assert case["ngrc"] == {
        "m_warmup": spec.warmup_index + 1,
        "m_train": config["train_points"],
        "n_total": n_total,
        "n_nonlinear": n_total - spec.n_linear - spec.include_constant,
    }


def test_reservoir_forecast_smoke(accurate_lorenz):
    # drive a small reservoir with Lorenz data and fit the next-state map;
    # this only checks that the pipeline produces a sane finite error
    from ngrc import ReadoutMatrix, TrainingBlock, ridge_fit

    params = ReservoirParams(n_nodes=100, sigma_r=0.05, spectral_radius=0.9,
                             input_scale=0.1, gamma=1.0, seed=0)
    reservoir = build_reservoir(params, input_dim=3)
    states = reservoir_run(reservoir, accurate_lorenz)
    warm = 100
    feats = quadratic_readout_features(states)[:, warm:-1]
    targets = accurate_lorenz.values[warm + 1 :].T
    readout = ridge_fit(TrainingBlock(feats, targets), alpha=1e-6)
    predicted = readout.weights @ feats
    scale = accurate_lorenz.values.std(axis=0)
    err = (predicted - targets) / scale[:, None]
    train_nrmse = float(np.sqrt(np.mean(err**2)))
    assert np.isfinite(train_nrmse)
    assert train_nrmse < 0.1

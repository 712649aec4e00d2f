import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import (
    FeatureSpec,
    Mode,
    NgrcModel,
    ReadoutMatrix,
    ReturnMap,
    ReturnMapError,
    ScalingVector,
    TimeSeries,
    UssEntry,
    double_scroll,
    estimate_model_uss,
    extract_return_map,
    feature_block,
    from_document,
    instantaneous_nrmse,
    lorenz63,
    lorenz_uss,
    nrmse,
    return_map_deviation,
    solve_double_scroll_uss,
    to_document,
    train_forecaster,
    train_inferrer,
    training_nrmse,
    uss_report,
    valid_time,
)
from ngrc.systems import double_scroll_uss_equation
from ngrc.verify import _DEVIATION_ROWS, learned_map_residual

FORECAST_RUN = Path(__file__).resolve().parent.parent / "runs" / "forecast-lorenz"

# positive root of the steady-state balance, frozen from an independent
# high-precision bisection run
DS_V1_ROOT = 1.0501215496419067


def scalar_map_model(weights):
    """d=1, k=1 forecaster with an explicit readout: delta(x) = w0 + w1*x."""
    spec = FeatureSpec(d=1, k=1, s=1, degrees=(), include_constant=True)
    return NgrcModel(
        spec=spec,
        readout=ReadoutMatrix(weights=np.array([weights], dtype=float), alpha=0.0),
        mode=Mode.FORECAST_DELTA,
        input_indices=(0,),
    )


def test_scaling_vector_from_series_and_validation():
    series = TimeSeries(dt=1.0, values=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    scaling = ScalingVector.from_series(series)
    assert np.allclose(scaling.values, series.values.std(axis=0))
    assert len(scaling) == 2
    with pytest.raises(ValueError):
        ScalingVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ScalingVector(np.array([-1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            ScalingVector(np.array([bad, 1.0]))


def test_nrmse_hand_case():
    truth = TimeSeries(dt=1.0, values=np.zeros((2, 2)))
    predicted = TimeSeries(dt=1.0, values=np.ones((2, 2)))
    scaling = ScalingVector(np.array([1.0, 2.0]))
    # scaled errors are (1, 0.5) per row: mean square 0.625
    assert nrmse(predicted, truth, scaling) == pytest.approx(np.sqrt(0.625))
    assert nrmse(truth, truth, scaling) == 0.0
    with pytest.raises(ValueError):
        nrmse(TimeSeries(dt=1.0, values=np.ones((3, 2))), truth, scaling)
    with pytest.raises(ValueError):
        nrmse(predicted, truth, ScalingVector(np.ones(3)))


def test_nrmse_propagates_nonfinite_instead_of_raising():
    truth = TimeSeries(dt=1.0, values=np.zeros((3, 1)))
    bad = TimeSeries(dt=1.0, values=np.array([[0.0], [np.inf], [np.nan]]))
    scaling = ScalingVector(np.ones(1))
    assert not np.isfinite(nrmse(bad, truth, scaling))


def forecaster_fit_nrmse(model, series):
    """The training NRMSE that train_forecaster used to compute on every fit."""
    idx = np.arange(model.spec.warmup_index, series.n_samples - 1)
    feats = feature_block(series, model.spec, idx)
    predicted = series.values[idx] + (model.readout.weights @ feats).T
    scale = series.values.std(axis=0)
    scale[scale == 0] = 1.0
    err = (predicted - series.values[idx + 1]) / scale
    return float(np.sqrt(np.mean(err**2)))


def inferrer_fit_nrmse(model, series):
    """The training NRMSE that train_inferrer used to compute on every fit."""
    target = model.metadata["target_index"]
    idx = np.arange(model.spec.warmup_index, series.n_samples)
    feats = feature_block(series.select(model.input_indices), model.spec, idx)
    targets = series.values[idx, target][None, :]
    predicted = model.readout.weights @ feats
    scale = float(series.values[:, target].std()) or 1.0
    return float(np.sqrt(np.mean(((predicted - targets) / scale) ** 2)))


def with_constant_component(series, value=2.5):
    return TimeSeries(series.dt, np.column_stack([series.values, np.full(series.n_samples, value)]))


def test_training_nrmse_equals_the_trainers_former_formula_bit_for_bit(lorenz_task):
    mother, alpha = lorenz_task.mother, lorenz_task.alpha
    spec = lorenz_task.spec
    constant_spec = FeatureSpec(d=4, k=2, s=1, degrees=(2,), include_constant=True)
    checked = 0
    for size, step in ((100, 131), (400, 257), (1000, 1013)):
        for start in range(0, mother.n_samples - size, step):
            train = mother.segment(start, start + size)
            model = train_forecaster(train, spec, alpha)
            assert training_nrmse(model, train) == forecaster_fit_nrmse(model, train)
            checked += 1
            if start % 4 == 0:  # one component that never moves, so its std is 0
                train = with_constant_component(train)
                model = train_forecaster(train, constant_spec, alpha)
                assert training_nrmse(model, train) == forecaster_fit_nrmse(model, train)
                checked += 1
    assert checked > 400

    infer_spec = FeatureSpec(d=2, k=4, s=5, degrees=(2,), include_constant=True)
    checked = 0
    for start in range(0, mother.n_samples - 400, 401):
        train = mother.segment(start, start + 400)
        for observed, target in (((0, 1), 2), ((2, 0), 1)):
            model = train_inferrer(train, observed, target, infer_spec, alpha)
            assert training_nrmse(model, train) == inferrer_fit_nrmse(model, train)
            checked += 1
        # a constant target scales by 1
        train = with_constant_component(train)
        model = train_inferrer(train, (0, 1), 3, infer_spec, alpha)
        assert training_nrmse(model, train) == inferrer_fit_nrmse(model, train)
        checked += 1
    assert checked > 200


def test_training_nrmse_of_a_reloaded_model_and_of_short_series(lorenz_task):
    model, train = lorenz_task.model, lorenz_task.train
    assert "train_nrmse" not in model.metadata  # the trainers only fit
    assert training_nrmse(from_document(to_document(model)), train) == training_nrmse(model, train)
    with pytest.raises(ValueError, match="series too short"):
        training_nrmse(model, train.segment(0, model.spec.warmup_index + 1))


def test_instantaneous_nrmse_per_sample():
    truth = TimeSeries(dt=0.5, values=np.zeros((3, 2)))
    predicted = TimeSeries(dt=0.5, values=np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))
    errors = instantaneous_nrmse(predicted, truth, ScalingVector(np.ones(2)))
    assert errors.shape == (3,)
    assert errors[0] == 0.0
    assert errors[1] == pytest.approx(np.sqrt((9.0 + 16.0) / 2.0))


def test_valid_time_first_crossing_matches_naive_loop():
    rng = np.random.default_rng(3)
    truth = TimeSeries(dt=0.1, values=np.zeros((50, 1)))
    predicted = TimeSeries(dt=0.1, values=rng.normal(scale=0.4, size=(50, 1)))
    scaling = ScalingVector(np.ones(1))
    threshold = 0.5
    errors = instantaneous_nrmse(predicted, truth, scaling)
    expected = truth.duration
    for i, e in enumerate(errors):
        if e > threshold:
            expected = i * 0.1
            break
    lyapunov = 1.1
    assert valid_time(predicted, truth, scaling, threshold, lyapunov) == pytest.approx(
        expected / lyapunov)


def test_valid_time_full_window_when_never_crossing():
    truth = TimeSeries(dt=0.1, values=np.zeros((21, 1)))
    predicted = TimeSeries(dt=0.1, values=np.full((21, 1), 0.01))
    vt = valid_time(predicted, truth, ScalingVector(np.ones(1)), 0.5, 2.0)
    assert vt == pytest.approx(truth.duration / 2.0)


def test_valid_time_treats_nan_as_crossed():
    truth = TimeSeries(dt=0.2, values=np.zeros((10, 1)))
    values = np.zeros((10, 1))
    values[4, 0] = np.nan
    predicted = TimeSeries(dt=0.2, values=values)
    vt = valid_time(predicted, truth, ScalingVector(np.ones(1)), 0.5, 1.0)
    assert vt == pytest.approx(4 * 0.2)


@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=6))
def test_valid_time_monotone_in_threshold(thresholds):
    rng = np.random.default_rng(7)
    truth = TimeSeries(dt=0.05, values=np.zeros((80, 2)))
    drift = np.cumsum(rng.normal(scale=0.05, size=(80, 2)), axis=0)
    predicted = TimeSeries(dt=0.05, values=drift)
    scaling = ScalingVector(np.ones(2))
    thresholds = sorted(thresholds)
    times = [valid_time(predicted, truth, scaling, th, 1.0) for th in thresholds]
    assert all(t1 >= t0 for t0, t1 in zip(times, times[1:]))


def test_lorenz_uss_analytic_values():
    states = lorenz_uss()
    r = np.sqrt(72.0)
    assert np.array_equal(states[0], np.zeros(3))
    assert np.allclose(states[1], [r, r, 27.0], rtol=0, atol=1e-14)
    assert np.allclose(states[2], [-r, -r, 27.0], rtol=0, atol=1e-14)
    system = lorenz63()
    for state in states:
        assert np.abs(system.rhs(state)).max() < 1e-12


def test_double_scroll_uss_root_and_rhs_residual():
    states = solve_double_scroll_uss()
    assert np.array_equal(states[0], np.zeros(3))
    assert states[1][0] == pytest.approx(DS_V1_ROOT, abs=1e-12)
    assert np.array_equal(states[2], -states[1])
    assert abs(double_scroll_uss_equation(states[1][0])) < 1e-12
    system = double_scroll()
    for state in states:
        assert np.abs(system.rhs(state)).max() < 1e-8
    # algebraic relations between the components
    v1 = states[1][0]
    assert states[1][1] == pytest.approx(v1 * 0.193 / 1.2)
    assert states[1][2] == pytest.approx(v1 / 1.2)


def test_learned_map_residual_quadratic_hand_case():
    # constant history [x, x]: features [1, x, x, x^2, x^2, x^2]
    spec = FeatureSpec(d=1, k=2, s=1, degrees=(2,), include_constant=True)
    model = NgrcModel(
        spec=spec,
        readout=ReadoutMatrix(weights=np.array([[0.0, 1.0, 1.0, 0.0, 0.0, 1.0]]),
                              alpha=0.0),
        mode=Mode.FORECAST_DELTA,
        input_indices=(0,),
    )
    assert learned_map_residual(model, np.array([3.0]))[0] == pytest.approx(15.0)
    assert learned_map_residual(model, np.array([0.0]))[0] == 0.0


def test_estimate_model_uss_finds_scalar_root():
    # delta(x) = 0.5 - 0.5 x has the single fixed point x = 1
    model = scalar_map_model([0.5, -0.5])
    (root,) = estimate_model_uss(model, [np.array([4.0])])
    assert root is not None
    assert root[0] == pytest.approx(1.0, abs=1e-8)


def test_estimate_model_uss_reports_no_root_as_none():
    # delta(x) = 1 everywhere: stalled Newton steps must not be reported
    # as convergence because the residual never drops
    model = scalar_map_model([1.0, 0.0])
    (root,) = estimate_model_uss(model, [np.array([0.0])])
    assert root is None


def complex_step_jacobian(model, x):
    """The Jacobian as estimate_model_uss takes it: one complex step per component."""
    h = 1e-20
    return learned_map_residual(model, x[:, None] + 1j * h * np.eye(x.size)).imag / h


def test_complex_step_jacobian_is_the_analytic_derivative():
    # d=2, k=1, quadratic: features [1, x, y, x^2, xy, y^2]
    spec = FeatureSpec(d=2, k=1, s=1, degrees=(2,), include_constant=True)
    model = NgrcModel(spec=spec, readout=ReadoutMatrix(
        np.array([[1.0, 2.0, 0.0, 3.0, 1.0, 0.0],     # 1 + 2x + 3x^2 + xy
                  [0.0, 0.0, -1.0, 0.0, 2.0, 5.0]]),  # -y + 2xy + 5y^2
        alpha=0.0), mode=Mode.FORECAST_DELTA, input_indices=(0, 1))
    for x, y in ((0.0, 0.0), (1.5, -2.25), (-3.0, 7.0), (1e3, 1e-3)):
        analytic = np.array([[2.0 + 6.0 * x + y, x], [2.0 * y, -1.0 + 2.0 * x + 10.0 * y]])
        assert np.allclose(complex_step_jacobian(model, np.array([x, y])), analytic,
                           rtol=1e-15, atol=0.0)


def test_complex_step_jacobian_matches_central_differences(lorenz_task):
    model = lorenz_task.model
    for state in [*lorenz_uss(), lorenz_task.mother.values[123]]:
        jac = complex_step_jacobian(model, state)
        central = np.empty_like(jac)
        for c in range(state.size):
            step = 1e-6 * (1.0 + abs(state[c]))
            plus, minus = state.copy(), state.copy()
            plus[c] += step
            minus[c] -= step
            central[:, c] = (learned_map_residual(model, plus)
                             - learned_map_residual(model, minus)) / (2.0 * step)
        assert np.linalg.norm(jac - central) <= 1e-6 * np.linalg.norm(jac)


def test_learned_map_residual_columns_equal_single_states_bit_for_bit(lorenz_task,
                                                                      ds_task):
    rng = np.random.default_rng(7)
    for model in (lorenz_task.model, ds_task.model):
        for n in (1, 3, 8):
            states = 10.0 * rng.normal(size=(model.spec.d, n))
            for columns in (states, states + 1e-20j * rng.normal(size=states.shape)):
                batch = learned_map_residual(model, columns)
                assert batch.shape == columns.shape
                single = np.column_stack([learned_map_residual(model, columns[:, j].copy())
                                          for j in range(n)])
                assert np.array_equal(batch, single)


@pytest.mark.filterwarnings("error")
def test_estimate_model_uss_reports_every_failure_as_none_without_warning(lorenz_task):
    # non-finite guesses, a map with a singular Jacobian everywhere, and a
    # quadratic map with no real fixed point, whose iterates wander off
    guesses = [np.array([np.nan, 0.0, 0.0]), np.array([np.inf, 1.0, 1.0]),
               np.array([1e200, -1e200, 1e200])]
    assert estimate_model_uss(lorenz_task.model, guesses) == [None] * 3
    assert estimate_model_uss(scalar_map_model([1.0, 0.0]), [np.array([2.0])]) == [None]
    no_root = NgrcModel(spec=FeatureSpec(d=1, k=1, s=1, degrees=(2,)),
                        readout=ReadoutMatrix(np.array([[1.0, 0.0, 1.0]]), alpha=0.0),
                        mode=Mode.FORECAST_DELTA, input_indices=(0,))  # 1 + x^2
    assert estimate_model_uss(no_root, [np.array([0.0]), np.array([0.5])]) == [None, None]


def test_uss_report_structure():
    model = scalar_map_model([0.5, -0.5])
    scaling = ScalingVector(np.array([2.0]))
    report = uss_report(model, [np.array([1.1]), np.array([0.9])], scaling)
    assert len(report) == 2
    for entry in report:
        assert entry.scaled_distance == pytest.approx(
            abs(entry.true_state[0] - 1.0) / 2.0, abs=1e-7)
    assert isinstance(report, tuple)
    assert all(isinstance(entry, UssEntry) for entry in report)


def test_extract_return_map_on_cosine():
    t = np.arange(0.0, 10.0, 0.01)
    series = TimeSeries(dt=0.01, values=np.cos(2 * np.pi * t)[:, None])
    rmap = extract_return_map(series, component=0)
    # interior maxima at t = 1..9
    assert rmap.maxima.size == 9
    assert np.abs(rmap.maxima - 1.0).max() < 1e-6
    # a window is a segment: t = 0..3.05 holds the maxima at t = 1, 2, 3
    short = extract_return_map(series.segment(0, 306), component=0)
    assert short.maxima.size == 3


def polyfit_maximum(values):
    """Peak of the degree-4 polyfit through 5 samples on [-1, 1], one stencil at a time."""
    poly = np.polynomial.polynomial
    coeffs = poly.polyfit(np.arange(-2.0, 3.0), values, 4)
    candidates = [-1.0, 1.0] + [r.real for r in poly.polyroots(poly.polyder(coeffs))
                                if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0]
    return max(poly.polyval(np.array(candidates), coeffs))


def test_batched_refinement_matches_per_stencil_polyfit(lorenz_task):
    tracked = np.loadtxt(FORECAST_RUN / "truth.csv", delimiter=",")
    # the tracked truth series and a 1000-time-unit closed-loop run
    for z in (tracked[:, 3], lorenz_task.predicted.values[:, 2]):
        rmap = extract_return_map(TimeSeries(dt=0.025, values=z[:, None]), component=0)
        peaks = np.nonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:]))[0] + 1
        peaks = peaks[(peaks >= 2) & (peaks <= z.size - 3)]
        oracle = np.array([polyfit_maximum(z[m - 2 : m + 3]) for m in peaks])
        assert rmap.maxima.size == oracle.size > 10
        assert np.abs(rmap.maxima - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_extract_return_map_on_samples_of_lower_degree():
    # the 5 samples (-4, -1, 0, -1, -4) lie on a parabola, so the quartic and
    # cubic coefficients are exactly 0 and the derivative is not a cubic
    i = np.arange(60)
    series = TimeSeries(dt=1.0, values=-(((i % 10) - 5.0) ** 2)[:, None])
    rmap = extract_return_map(series, component=0)
    assert np.array_equal(rmap.maxima, np.zeros(6))


def test_extract_return_map_needs_two_maxima():
    series = TimeSeries(dt=0.1, values=np.arange(50.0)[:, None])
    with pytest.raises(ReturnMapError, match="found 0 local maxima in 4.9 time units"):
        extract_return_map(series, component=0)


@pytest.mark.filterwarnings("error")
def test_extract_return_map_drops_maxima_with_nonfinite_stencils():
    # the stencil of the maximum 3 reaches the inf, which leaves one maximum
    series = TimeSeries(dt=1.0, values=np.array(
        [0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 3.0, 1.0, np.inf, np.nan, np.nan])[:, None])
    with pytest.raises(ReturnMapError, match="found 1 local maxima"):
        extract_return_map(series, component=0)
    # a run diverging next to its maximum at sample 700 maps as the run cut
    # before its first non-finite sample
    x = np.cos(2 * np.pi * np.arange(0.0, 10.0, 0.01))
    for first_bad in range(699, 705):
        for bad in (np.inf, -np.inf, np.nan):
            diverged = x.copy()
            diverged[first_bad] = bad
            diverged[first_bad + 1:] = np.nan
            rmap = extract_return_map(TimeSeries(dt=0.01, values=diverged[:, None]), 0)
            cut = extract_return_map(TimeSeries(dt=0.01, values=x[:first_bad, None]), 0)
            assert np.array_equal(rmap.maxima, cut.maxima)
            assert rmap.maxima.size == (6 if first_bad < 703 else 7)


def test_return_map_pairs_and_validation():
    rmap = ReturnMap(np.array([1.0, 3.0, 2.0]))
    assert np.array_equal(rmap.pairs, [[1.0, 3.0], [3.0, 2.0]])
    with pytest.raises(ValueError):
        ReturnMap(np.array([1.0]))


def test_return_map_deviation_directed_hand_case():
    predicted = ReturnMap(np.array([0.0, 0.0]))
    truth = ReturnMap(np.array([3.0, 4.0, 0.0, 1.0]))
    # nearest truth pair to (0, 0) is (0, 1) at distance 1
    assert return_map_deviation(predicted, truth) == pytest.approx(1.0)
    assert return_map_deviation(truth, truth) == 0.0


def tracked_return_map(name):
    """A return map of the canonical forecast-lorenz run, from its CSV of pairs."""
    pairs = np.loadtxt(FORECAST_RUN / f"return_map_{name}.csv", delimiter=",")
    assert np.array_equal(pairs[1:, 0], pairs[:-1, 1])
    return ReturnMap(np.append(pairs[:, 0], pairs[-1, 1]))


def broadcast_deviation(predicted, truth):
    """The deviation from the full (n_pred, n_truth, 2) table of differences."""
    diffs = predicted.pairs[:, None, :] - truth.pairs[None, :, :]
    return float(np.mean(np.sqrt(np.sum(diffs**2, axis=2)).min(axis=1)))


def test_return_map_deviation_matches_the_full_table_bit_for_bit():
    predicted, truth = tracked_return_map("forecast"), tracked_return_map("truth")
    summary = json.loads((FORECAST_RUN / "summary.json").read_text())
    assert (return_map_deviation(predicted, truth) == broadcast_deviation(predicted, truth)
            == summary["return_map"]["deviation"])
    rng = np.random.default_rng(14)
    truth = ReturnMap(rng.normal(30.0, 5.0, 400))
    for n_pairs in (1, _DEVIATION_ROWS - 1, _DEVIATION_ROWS, _DEVIATION_ROWS + 1,
                    3 * _DEVIATION_ROWS + 17):
        predicted = ReturnMap(rng.normal(30.0, 5.0, n_pairs + 1))
        assert return_map_deviation(predicted, truth) == broadcast_deviation(predicted, truth)
    with_nan = predicted.maxima.copy()
    with_nan[_DEVIATION_ROWS + 5] = np.nan
    assert np.isnan(broadcast_deviation(ReturnMap(with_nan), truth))
    assert np.isnan(return_map_deviation(ReturnMap(with_nan), truth))
    assert np.isnan(return_map_deviation(truth, ReturnMap(with_nan)))


def test_return_map_deviation_memory_is_linear():
    # a full (1330, 1338, 2) table of differences of the canonical maps is
    # 27 MiB by itself; a (block, 1338) array is 0.65 MiB
    predicted, truth = tracked_return_map("forecast"), tracked_return_map("truth")
    tracemalloc.start()
    try:
        return_map_deviation(predicted, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_return_map_csv_roundtrip(tmp_path):
    rmap = ReturnMap(np.array([1.25, -0.5, 3.0 + 2**-40]))
    path = tmp_path / "map.csv"
    rmap.to_csv(path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, rmap.pairs)

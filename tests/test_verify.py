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
    instantaneous_nrmse,
    lorenz63,
    lorenz_uss,
    nrmse,
    return_map_deviation,
    solve_double_scroll_uss,
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

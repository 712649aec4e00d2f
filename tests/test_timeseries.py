import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import FeatureSpec, TimeSeries, forecast, train_forecaster
from ngrc._checks import ConfigError

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


def make_series(n=5, d=2, dt=0.25, t0=1.0):
    return TimeSeries(dt=dt, values=np.arange(n * d, dtype=float).reshape(n, d), t0=t0)


def test_basic_properties():
    series = make_series()
    assert series.n_samples == 5
    assert series.n_components == 2
    assert np.allclose(series.duration, 4 * 0.25)
    assert np.array_equal(series.times, 1.0 + 0.25 * np.arange(5))


def test_times_built_by_multiplication_not_accumulation():
    # repeated addition of fl(0.025) drifts; multiplication must not
    series = TimeSeries(dt=0.025, values=np.zeros((401, 1)))
    assert series.times[400] == 0.025 * 400


def test_segment_halves_and_t0():
    series = make_series()
    seg = series.segment(2, 4)
    assert np.array_equal(seg.values, series.values[2:4])
    assert seg.t0 == series.t0 + 2 * series.dt
    assert seg.dt == series.dt


def test_segment_rejects_empty_or_reversed():
    series = make_series()
    for start, stop, field in [(3, 3, "out of range"), (4, 2, "out of range"),
                               (-1, 3, "start"), (0, 6, "out of range"), (True, 3, "start"),
                               (0, 2.5, "stop"), (np.nan, 3, "start"), (0, np.inf, "stop")]:
        with pytest.raises(ConfigError, match=field):
            series.segment(start, stop)


def test_segment_takes_whole_numbers_of_any_type():
    series = make_series()
    for start, stop in ((np.int64(1), np.int64(3)), (1.0, 3.0)):
        seg = series.segment(start, stop)
        assert np.array_equal(seg.values, series.values[1:3])
        assert seg.t0 == series.t0 + series.dt


def test_select_components():
    series = make_series(d=3)
    sel = series.select([2, 0])
    assert np.array_equal(sel.values, series.values[:, [2, 0]])
    assert sel.t0 == series.t0
    assert np.array_equal(series.select(np.array([1])).values, series.values[:, [1]])
    for indices in ([-1], [3], [0, 5], [0.5], [True]):
        with pytest.raises(ConfigError, match="indices"):
            series.select(indices)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TimeSeries(dt=0.1, values=np.zeros(5))
    with pytest.raises(ValueError):
        TimeSeries(dt=0.0, values=np.zeros((5, 1)))
    with pytest.raises(ValueError):
        TimeSeries(dt=-1.0, values=np.zeros((5, 1)))
    with pytest.raises(ValueError):
        TimeSeries(dt=0.1, values=np.zeros((0, 1)))


@pytest.mark.parametrize("kw, field", [(dict(dt=np.nan), "dt"), (dict(dt=np.inf), "dt"),
                                       (dict(t0=np.nan), "t0"), (dict(t0=-np.inf), "t0")])
def test_validation_rejects_nonfinite_grid(kw, field):
    # a NaN grid would reach .times as NaN sample times
    with pytest.raises(ValueError, match=field):
        TimeSeries(**{"dt": 0.1, "values": [[1.0], [2.0]], **kw})


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    series = TimeSeries(dt=1.0 / 3.0, values=rng.normal(size=(20, 3)), t0=np.pi)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.array_equal(data[:, 0], series.times)
    assert np.array_equal(data[:, 1:], series.values)


@given(
    dt=st.floats(1e-6, 1e3),
    t0=finite_floats,
    rows=st.lists(st.lists(finite_floats, min_size=2, max_size=2),
                  min_size=1, max_size=8),
)
def test_csv_roundtrip_property(tmp_path_factory, dt, t0, rows):
    series = TimeSeries(dt=dt, values=np.array(rows, dtype=float), t0=t0)
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    series.to_csv(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.array_equal(data[:, 0], series.times)
    assert np.array_equal(data[:, 1:], series.values)


def test_csv_single_row(tmp_path):
    series = TimeSeries(dt=0.5, values=np.array([[1.0, 2.0]]))
    path = tmp_path / "one.csv"
    series.to_csv(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    assert data.shape == (1, 3)
    assert np.array_equal(data[:, 0], series.times)
    assert np.array_equal(data[:, 1:], series.values)


def test_values_are_read_only():
    series = make_series(n=8)
    before = series.values.copy()
    seg = series.segment(2, 7)
    inner = seg.segment(1, 3)
    for view, rows in ((seg, slice(2, 7)), (inner, slice(3, 5))):
        assert np.array_equal(view.values, before[rows])
        assert np.shares_memory(view.values, series.values)  # a view, not a copy
    spec = FeatureSpec(d=2, k=2, s=1, degrees=(2,))
    rng = np.random.default_rng(5)
    noisy = TimeSeries(dt=0.1, values=rng.normal(size=(40, 2)))
    predicted = forecast(train_forecaster(noisy, spec, 1e-3), noisy, 4)
    for values in (series.values, seg.values, inner.values, predicted.values):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 99.0
    assert np.array_equal(series.values, before)

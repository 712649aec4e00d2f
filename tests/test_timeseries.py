import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import TimeSeries

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
    with pytest.raises(ValueError):
        series.segment(3, 3)
    with pytest.raises(ValueError):
        series.segment(4, 2)


def test_select_components():
    series = make_series(d=3)
    sel = series.select([2, 0])
    assert np.array_equal(sel.values, series.values[:, [2, 0]])
    assert sel.t0 == series.t0


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
    series = make_series()
    with pytest.raises(ValueError):
        series.values[0, 0] = 99.0

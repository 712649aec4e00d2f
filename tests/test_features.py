import math
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import (
    FeatureSpec,
    Mode,
    NgrcModel,
    ReadoutMatrix,
    TimeSeries,
    WarmupError,
    feature_block,
    feature_length,
    feature_names,
    from_document,
    monomial_exponent_table,
    to_document,
    total_features,
)

# The three benchmark feature sets and their published sizes.
LORENZ_FORECAST = FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=True)
DS_FORECAST = FeatureSpec(d=3, k=2, s=1, degrees=(3,), include_constant=False)
LORENZ_INFER = FeatureSpec(d=2, k=4, s=5, degrees=(2,), include_constant=True)


def brute_force_pairs(n_vars):
    return [(i, j) for i in range(n_vars) for j in range(i, n_vars)]


def brute_force_triples(n_vars):
    return [
        (i, j, k)
        for i in range(n_vars)
        for j in range(i, n_vars)
        for k in range(j, n_vars)
    ]


def test_benchmark_feature_counts():
    assert feature_length(LORENZ_FORECAST) == 28
    assert feature_length(DS_FORECAST) == 62
    assert feature_length(LORENZ_INFER) == 45


def test_feature_length_formula_pieces():
    # constant + d*k linear + C(dk+p-1, p) per degree
    spec = FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=True)
    assert spec.n_linear == 6
    assert feature_length(spec) == 1 + 6 + math.comb(7, 2)
    spec3 = FeatureSpec(d=3, k=2, s=1, degrees=(3,), include_constant=False)
    assert feature_length(spec3) == 6 + math.comb(8, 3)


def test_monomial_table_small_case():
    assert monomial_exponent_table(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert monomial_exponent_table(1, 3) == [(0, 0, 0)]


def test_monomial_table_matches_brute_force_enumeration():
    for n_vars in range(1, 13):
        assert monomial_exponent_table(n_vars, 2) == brute_force_pairs(n_vars)
        assert monomial_exponent_table(n_vars, 3) == brute_force_triples(n_vars)


@given(n_vars=st.integers(1, 8), degree=st.integers(2, 4))
def test_monomial_table_counts_and_order(n_vars, degree):
    table = monomial_exponent_table(n_vars, degree)
    assert len(table) == math.comb(n_vars + degree - 1, degree)
    assert table == sorted(table)
    assert all(tuple(sorted(m)) == m for m in table)


def test_warmup_index():
    assert LORENZ_FORECAST.warmup_index == 1
    assert LORENZ_INFER.warmup_index == 15
    assert FeatureSpec(d=1, k=1, s=3, degrees=()).warmup_index == 0


def test_delay_window_orders_newest_first():
    values = np.arange(20, dtype=float).reshape(10, 2)
    series = TimeSeries(dt=0.1, values=values)
    spec = FeatureSpec(d=2, k=3, s=2, degrees=(), include_constant=False)
    window = feature_block(series, spec, [7])[:, 0]
    assert np.array_equal(window, values[[7, 5, 3]].ravel())


def test_delay_window_rejects_warmup_region():
    series = TimeSeries(dt=0.1, values=np.zeros((10, 2)))
    spec = FeatureSpec(d=2, k=3, s=2, degrees=())
    with pytest.raises(WarmupError):
        feature_block(series, spec, [3])
    feature_block(series, spec, [4])  # first valid index


def test_total_features_hand_computed():
    # window newest-first: X_i = 2, X_{i-1} = 3; quadratic monomials of
    # (2, 3) in enumeration order are 4, 6, 9
    spec = FeatureSpec(d=1, k=2, s=1, degrees=(2,), include_constant=True)
    window = np.array([2.0, 3.0])
    expected = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    assert np.array_equal(total_features(window, spec), expected)


def test_total_features_cubic_no_constant():
    spec = FeatureSpec(d=1, k=1, s=1, degrees=(3,), include_constant=False)
    window = np.array([2.0])
    assert np.array_equal(total_features(window, spec), np.array([2.0, 8.0]))


def test_linear_features_concatenate_taps():
    values = np.arange(12, dtype=float).reshape(6, 2)
    series = TimeSeries(dt=0.5, values=values)
    spec = FeatureSpec(d=2, k=2, s=1, degrees=(), include_constant=False)
    assert np.array_equal(feature_block(series, spec, [3])[:, 0],
                          np.array([6.0, 7.0, 4.0, 5.0]))


@st.composite
def specs(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    degrees = tuple(sorted(draw(st.sets(st.integers(2, 4), max_size=2))))
    const = draw(st.booleans())
    return FeatureSpec(d=d, k=k, s=s, degrees=degrees, include_constant=const)


@given(spec=specs(), data=st.data())
def test_feature_vector_length_matches_declared(spec, data):
    samples = data.draw(
        st.lists(
            st.lists(st.floats(-5, 5), min_size=spec.d, max_size=spec.d),
            min_size=spec.k, max_size=spec.k,
        )
    )
    window = np.array(samples).ravel()
    assert total_features(window, spec).shape == (feature_length(spec),)


@given(spec=specs())
def test_window_of_ones_gives_unit_features(spec):
    window = np.ones(spec.n_linear)
    assert np.array_equal(total_features(window, spec),
                          np.ones(feature_length(spec)))


@given(spec=specs(), scale=st.floats(0.1, 3.0))
def test_degree_blocks_scale_homogeneously(spec, scale):
    base = np.linspace(0.5, 1.5, spec.k * spec.d)
    f_base = total_features(base, spec)
    f_scaled = total_features(scale * base, spec)
    offset = 1 if spec.include_constant else 0
    # constant unchanged, linear block scales once, degree-p block scales p times
    assert np.allclose(f_scaled[offset:offset + spec.n_linear],
                       scale * f_base[offset:offset + spec.n_linear], rtol=1e-12)
    pos = offset + spec.n_linear
    for p in spec.degrees:
        n = math.comb(spec.n_linear + p - 1, p)
        assert np.allclose(f_scaled[pos:pos + n], scale**p * f_base[pos:pos + n],
                           rtol=1e-10)
        pos += n


MIXED = FeatureSpec(d=3, k=2, s=3, degrees=(2, 3), include_constant=True)


def test_feature_block_matches_per_index_loop(accurate_lorenz):
    # one test name, several index sets: each column against its own window
    cases = [
        (MIXED, [0, 1, 2], np.arange(MIXED.warmup_index, 40)),
        (MIXED, [0, 1, 2], [40, 7, 7, 19]),  # unsorted, with a repeat
        (MIXED, [0, 1, 2], [25]),
        (LORENZ_INFER, [0, 2], np.arange(LORENZ_INFER.warmup_index, 200, 3)),
    ]
    for spec, components, indices in cases:
        series = accurate_lorenz.select(components)
        block = feature_block(series, spec, indices)
        assert block.shape == (feature_length(spec), len(indices))
        for col, i in enumerate(indices):
            window = series.values[i - spec.s * np.arange(spec.k)].ravel()
            assert np.array_equal(block[:, col], total_features(window, spec))


@st.composite
def nonlinear_specs(draw):
    degrees = draw(st.sets(st.integers(2, 4), min_size=1, max_size=3))
    return replace(draw(specs()), degrees=tuple(degrees))


@given(spec=nonlinear_specs(), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batched_columns_equal_single_vectors(spec, n, seed):
    block = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(spec.n_linear, n))
    batched = total_features(block, spec)
    assert batched.shape == (feature_length(spec), n)
    for j in range(n):
        assert np.array_equal(batched[:, j], total_features(block[:, j], spec))
    with pytest.raises(ValueError):
        total_features(block[1:], spec)
    with pytest.raises(ValueError):
        total_features(np.ones(spec.n_linear + 1), spec)


def test_complex_features_have_the_real_features_as_real_part(lorenz_task, ds_task):
    rng = np.random.default_rng(3)
    for spec in (lorenz_task.spec, ds_task.spec):
        lin = 10.0 * rng.normal(size=(spec.n_linear, 5))
        for block in (lin, lin[:, 0]):
            step = block + 1e-20j * rng.normal(size=block.shape)
            features = total_features(step, spec)
            assert features.dtype == complex and features.shape[1:] == block.shape[1:]
            assert np.array_equal(features.real, total_features(block, spec))
    # anything else is taken as float
    assert total_features([1, 2], FeatureSpec(d=1, k=2, degrees=(2,))).dtype == float


def test_feature_block_rejects_warmup_indices(accurate_lorenz):
    spec = FeatureSpec(d=3, k=2, s=3, degrees=(2,))
    with pytest.raises(WarmupError):
        feature_block(accurate_lorenz, spec, np.array([1, 5]))
    # fractional and boolean indices are refused, not truncated or taken as 0 and 1
    for indices in ([5.7], [4.0, 5.0], [True], np.array([False, True])):
        with pytest.raises(ValueError, match="indices must be integers"):
            feature_block(accurate_lorenz, spec, indices)
    # an index past the series end is a rejected input too, not an IndexError
    with pytest.raises(ValueError, match="out of range"):
        feature_block(accurate_lorenz, spec, [5, accurate_lorenz.n_samples])


def test_feature_names_shape_and_uniqueness():
    names = feature_names(LORENZ_FORECAST, ["x", "y", "z"])
    assert len(names) == 28
    assert len(set(names)) == 28
    assert names[0] == "const"
    assert names[1] == "x[t]"
    assert names[4] == "x[t-1]"
    assert names[7] == "x[t]*x[t]"


def reference_features(lin, spec):
    """The feature vector from explicit products, without the kernel's table."""
    features = [1.0] if spec.include_constant else []
    features += [float(v) for v in lin]
    for p in spec.degrees:
        for combo in combinations_with_replacement(range(spec.n_linear), p):
            features.append(math.prod(float(lin[a]) for a in combo))
    return np.array(features)


@given(spec=specs(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_total_features_matches_explicit_products(spec, n, seed):
    block = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(spec.n_linear, n))
    expected = np.column_stack([reference_features(block[:, j], spec) for j in range(n)])
    assert np.array_equal(total_features(block[:, 0], spec), expected[:, 0])
    assert np.array_equal(total_features(block, spec), expected)


@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_feature_names_name_the_factors_of_each_value(spec, seed):
    lin = np.random.default_rng(seed).uniform(-3.0, 3.0, size=spec.n_linear)
    # label of each linear entry: component c delayed by j*s samples
    value_of = {"const": 1.0}
    for j in range(spec.k):
        for c in range(spec.d):
            value_of[f"x{c}[t]" if j == 0 else f"x{c}[t-{j * spec.s}]"] = lin[j * spec.d + c]
    names = feature_names(spec)
    values = total_features(lin, spec)
    assert len(names) == len(values) == len(set(names))
    for name, value in zip(names, values):
        assert math.prod(value_of[factor] for factor in name.split("*")) == value


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        FeatureSpec(d=0, k=2, s=1, degrees=(2,))
    with pytest.raises(ValueError):
        FeatureSpec(d=1, k=0, s=1, degrees=(2,))
    with pytest.raises(ValueError):
        FeatureSpec(d=1, k=1, s=0, degrees=(2,))
    with pytest.raises(ValueError):
        FeatureSpec(d=1, k=1, s=1, degrees=(1,))
    with pytest.raises(ValueError):
        FeatureSpec(d=1, k=1, s=1, degrees=(2, 2))
    # a degree read from JSON must not be truncated to an integer
    for degrees in ((2.7,), (3.9, 2)):
        with pytest.raises(ValueError, match="integers"):
            FeatureSpec(d=1, k=1, s=1, degrees=degrees)
    assert FeatureSpec(d=1, k=1, s=1, degrees=(3.0, 2)).degrees == (2, 3)
    # nor may a count, which would otherwise fail later in feature_length
    for kw in (dict(d=1.5), dict(k=2.5), dict(s=0.5)):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be an integer"):
            FeatureSpec(**{**dict(d=3, k=2, s=1, degrees=(2,)), **kw})
    # non-finite values are rejected by name, not by int()'s OverflowError
    for value in (math.inf, -math.inf, math.nan):
        for name in ("d", "k", "s"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                FeatureSpec(**{**dict(d=3, k=2, s=1, degrees=(2,)), name: value})
        with pytest.raises(ValueError, match="degrees must be integers"):
            FeatureSpec(d=3, k=2, s=1, degrees=(2, value))
    spec = FeatureSpec(d=3.0, k=2.0, s=1.0, degrees=(2,))
    assert (spec.d, spec.k, spec.s) == (3, 2, 1) and type(spec.k) is int
    doc = to_document(NgrcModel(spec=FeatureSpec(d=1, k=2, s=1, degrees=(2,)),
                                readout=ReadoutMatrix(np.zeros((1, 6)), 0.0),
                                mode=Mode.FORECAST_DELTA, input_indices=(0,)))
    with pytest.raises(ValueError, match="k must be an integer"):
        from_document({**doc, "k": 2.5})
    # True == 1, but a flag is not a count, and 1 or "no" is not a flag
    for name in ("d", "k", "s"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            FeatureSpec(**{**dict(d=3, k=2, s=1, degrees=(2,)), name: True})
    with pytest.raises(ValueError, match="degrees must be integers"):
        FeatureSpec(d=3, k=2, s=1, degrees=(2, True))
    for flag in (2, 1, 0, "no", None):
        with pytest.raises(ValueError, match="include_constant must be true or false"):
            FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=flag)

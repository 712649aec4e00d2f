import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ngrc import ReadoutMatrix, SingularSystemError, TrainingBlock, feature_block, ridge_fit


def dense_inverse_ridge(features, targets, alpha):
    """Literal normal-equation solution via an explicit matrix inverse."""
    gram = features @ features.T + alpha * np.eye(features.shape[0])
    return targets @ features.T @ np.linalg.inv(gram)


def random_block(rng, n_feat, n_out, n_cols):
    return TrainingBlock(rng.normal(size=(n_feat, n_cols)),
                         rng.normal(size=(n_out, n_cols)))


def test_matches_dense_inverse_oracle(rng):
    worst = 0.0
    for _ in range(50):
        n_feat = int(rng.integers(2, 61))
        n_out = int(rng.integers(1, 5))
        n_cols = int(rng.integers(n_feat, 3 * n_feat))
        alpha = float(10.0 ** rng.uniform(-8, 0))
        block = random_block(rng, n_feat, n_out, n_cols)
        fitted = ridge_fit(block, alpha)
        oracle = dense_inverse_ridge(block.features, block.targets, alpha)
        worst = max(worst, float(np.abs(fitted.weights - oracle).max()))
    assert worst < 1e-10


def thin_svd_ridge(features, targets, alpha):
    """Ridge solution from the thin SVD of the features, without forming the Gram matrix."""
    u, sv, vt = np.linalg.svd(features, full_matrices=False)
    return (targets @ vt.T * (sv / (sv**2 + alpha))) @ u.T


def test_matches_thin_svd_on_ill_conditioned_lorenz_features(lorenz_task):
    # The canonical quadratic Lorenz fit: 400 points, 28 features, alpha
    # 2.5e-6, a Gram matrix of condition number about 3e14. A plain
    # normal-equation solve is off by about 4e-4 here; the refined one is
    # as accurate as the orthogonal solve.
    train = lorenz_task.train
    idx = np.arange(lorenz_task.spec.warmup_index, train.n_samples - 1)
    features = feature_block(train, lorenz_task.spec, idx)
    targets = (train.values[idx + 1] - train.values[idx]).T
    fitted = ridge_fit(TrainingBlock(features, targets), 2.5e-6)
    oracle = thin_svd_ridge(features, targets, 2.5e-6)
    relative = np.abs(fitted.weights - oracle).max() / np.abs(oracle).max()
    assert relative <= 1e-8


def test_exact_recovery_without_regularization(rng):
    # targets generated by a known weight matrix, full-rank features
    true_w = rng.normal(size=(2, 5))
    features = rng.normal(size=(5, 40))
    block = TrainingBlock(features, true_w @ features)
    fitted = ridge_fit(block, 0.0)
    assert np.allclose(fitted.weights, true_w, atol=1e-10)


def test_hand_solvable_single_feature():
    # one feature, one output: W = sum(y*o) / (sum(o*o) + alpha)
    features = np.array([[1.0, 2.0]])
    targets = np.array([[2.0, 4.0]])
    fitted = ridge_fit(TrainingBlock(features, targets), 5.0)
    assert np.isclose(fitted.weights[0, 0], 10.0 / (5.0 + 5.0))


def test_regularization_shrinks_weights(rng):
    block = random_block(rng, 8, 2, 30)
    norms = [np.linalg.norm(ridge_fit(block, a).weights)
             for a in (1e-6, 1e-2, 1.0, 100.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


@given(alpha_lo=st.floats(1e-8, 1e2), factor=st.floats(1.5, 1e4))
def test_weight_norm_monotone_in_alpha(alpha_lo, factor):
    rng = np.random.default_rng(7)
    block = random_block(rng, 6, 2, 25)
    lo = np.linalg.norm(ridge_fit(block, alpha_lo).weights)
    hi = np.linalg.norm(ridge_fit(block, alpha_lo * factor).weights)
    assert hi <= lo * (1 + 1e-9)


def test_singular_system_raises_without_regularization():
    # rank-deficient: a zero feature row makes the gram exactly singular
    features = np.vstack([np.ones((1, 10)), np.zeros((1, 10))])
    targets = np.ones((1, 10))
    with pytest.raises(SingularSystemError):
        ridge_fit(TrainingBlock(features, targets), 0.0)
    # the same system is solvable once regularized
    fitted = ridge_fit(TrainingBlock(features, targets), 1e-6)
    assert np.all(np.isfinite(fitted.weights))


def test_nonfinite_training_data_is_invalid_input_not_a_singular_system():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ridge_fit(TrainingBlock(np.array([[1.0, bad, 3.0]]), np.ones((1, 3))), 1e-6)
        with pytest.raises(ValueError, match="finite"):
            ridge_fit(TrainingBlock(np.ones((1, 3)), np.array([[1.0, bad, 3.0]])), 1e-6)


@pytest.mark.filterwarnings("error")
def test_overflowing_normal_equations_of_finite_data_are_a_singular_system():
    # each entry is finite, but O O^T (first case) or O Y^T (second) is not
    big = np.array([[1e200, 1.0, 3.0]])
    with pytest.raises(SingularSystemError, match="overflow"):
        ridge_fit(TrainingBlock(big, np.ones((1, 3))), 1e-6)
    with pytest.raises(SingularSystemError, match="overflow"):
        ridge_fit(TrainingBlock(np.array([[1e150, 1.0, 3.0]]), 1e200 * np.ones((1, 3))), 1e-6)
    # a non-finite entry stays invalid input, whatever else overflows
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ridge_fit(TrainingBlock(np.vstack([big, [[bad, 1.0, 1.0]]]), np.ones((1, 3))), 1e-6)


@pytest.mark.parametrize("alpha", [-1e-6, np.nan, np.inf])
def test_bad_alpha_is_invalid_input_not_a_singular_system(alpha):
    block = TrainingBlock(np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="alpha"):
        ridge_fit(block, alpha)
    with pytest.raises(ValueError, match="alpha"):
        ReadoutMatrix(weights=np.ones((1, 1)), alpha=alpha)


def test_underdetermined_more_features_than_columns(rng):
    block = random_block(rng, 30, 1, 10)
    fitted = ridge_fit(block, 1e-6)
    oracle = dense_inverse_ridge(block.features, block.targets, 1e-6)
    assert np.allclose(fitted.weights, oracle, atol=1e-8)


def test_block_validates_column_counts():
    with pytest.raises(ValueError):
        TrainingBlock(np.ones((3, 10)), np.ones((2, 9)))


def test_fit_preserves_alpha_in_result(rng):
    block = random_block(rng, 4, 1, 12)
    readout = ridge_fit(block, 0.25)
    assert readout.alpha == 0.25
    assert (readout.output_dim, readout.feature_dim) == (1, 4)


@pytest.mark.parametrize("layout", ["C", "F", "1-D"])
def test_readout_weights_are_c_ordered_read_only_copy(layout):
    source = np.arange(12.0).reshape(3, 4)
    given_weights = {"C": source.copy(), "F": np.asfortranarray(source),
                     "1-D": source[0].copy()}[layout]
    expected = np.atleast_2d(given_weights).copy()
    weights = ReadoutMatrix(weights=given_weights, alpha=0.0).weights
    assert weights.flags.c_contiguous
    assert not weights.flags.writeable
    assert np.array_equal(weights, expected)
    assert not np.shares_memory(weights, given_weights)
    given_weights[...] = -1.0
    assert np.array_equal(weights, expected)
    with pytest.raises(ValueError):
        weights[0, 0] = 99.0

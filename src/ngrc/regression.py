"""Tikhonov-regularized linear least squares for the readout layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import NumericalError, entries, number, reject, trusted


class SingularSystemError(NumericalError):
    """Raised when the normal-equation matrix is not numerically positive definite."""


@dataclass(frozen=True)
class ReadoutMatrix:
    """Trained output weights plus the ridge parameter used to fit them.

    ``weights`` is always stored as a C-ordered, read-only copy of what was
    passed in. The layout fixes the BLAS kernel (and so the summation order)
    behind ``weights @ features``; a closed-loop rollout amplifies any
    last-bit difference, so freshly fitted, copied and reloaded weights must
    share one layout to forecast bit-identically.
    """

    weights: np.ndarray  # (output_dim, feature_dim)
    alpha: float

    def __post_init__(self):
        try:  # a 1-D array is one row
            weights = np.array(self.weights, order="C", ndmin=2)
            got = f"a {weights.ndim}-D array of {weights.dtype}"
        except ValueError:
            weights, got = None, "rows of unequal lengths"
        reject((weights is None or weights.ndim != 2 or weights.dtype.kind not in "iuf")
               and f"weights must be a 2-D array of numbers, got {got}"
               or entries("weights", weights), number("alpha", self.alpha, 0.0))
        weights = weights.astype(float, copy=False)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def output_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrainingBlock:
    """Stacked feature/target columns over the training steps."""

    features: np.ndarray  # (feature_dim, n_samples)
    targets: np.ndarray   # (output_dim, n_samples)

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        reject(features.shape[1] != targets.shape[1]
               and f"features have {features.shape[1]} columns but targets have {targets.shape[1]}",
               features.shape[1] < 1 and "need at least one training sample")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


def ridge_fit(block: TrainingBlock, alpha: float) -> ReadoutMatrix:
    """Fit W minimizing ||Y - W O||^2 + alpha ||W||^2.

    Solves the normal equations (O O^T + alpha I) W^T = O Y^T with the
    Cholesky factor L of G = O O^T + alpha I, then takes two corrected
    semi-normal refinement steps with the same factor,

        dW^T = G^-1 (O (Y - W O)^T - alpha W^T),

    which bring the weights to the accuracy of an orthogonal (SVD or QR)
    solve although G squares the condition number of O (Bjorck, *Numerical
    Methods for Least Squares Problems*, SIAM 1996).
    numpy has no triangular solve, so G^-1 is applied as L^-T (L^-1 b)
    through the explicit inverse of L; G itself is never inverted.
    Non-finite data raise ValueError; normal equations of finite data that
    overflow, or that are not positive definite, raise SingularSystemError.
    """
    reject(number("alpha", alpha, 0.0))
    O, Y = block.features, block.targets
    # An overflowing product is reported as an error (a numerical failure
    # when the data were finite), so the arithmetic must not warn.
    with np.errstate(all="ignore"):
        gram, moments = O @ O.T, O @ Y.T
        if not (np.isfinite(gram).all() and np.isfinite(moments).all()):
            if np.isfinite(O).all() and np.isfinite(Y).all():
                raise SingularSystemError("normal equations overflow: the Gram matrix of "
                                          "these finite training features is not finite")
            raise ValueError("training features and targets must be finite")
        gram.ravel()[:: len(gram) + 1] += alpha  # the diagonal, through a view
        try:
            factor_inv = np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"normal-equation matrix is not positive definite at alpha={alpha}; "
                "increase alpha or supply richer training data"
            ) from exc
        weights_t = factor_inv.T @ (factor_inv @ moments)
        for _ in range(2):
            rhs = O @ (Y - weights_t.T @ O).T - alpha * weights_t
            weights_t = weights_t + factor_inv.T @ (factor_inv @ rhs)
    if not np.isfinite(weights_t).all():
        raise SingularSystemError("fit produced non-finite weights")
    # the weights and alpha are checked: store them as ReadoutMatrix would
    weights = np.ascontiguousarray(weights_t.T)
    weights.setflags(write=False)
    return trusted(ReadoutMatrix, weights=weights, alpha=float(alpha))

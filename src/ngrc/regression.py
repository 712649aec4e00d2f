"""Tikhonov-regularized linear least squares for the readout layer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularSystemError(RuntimeError):
    """Raised when alpha = 0 and the normal-equation matrix is rank deficient."""


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
        weights = np.array(self.weights, dtype=float, order="C", ndmin=2)
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
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
        if features.shape[1] != targets.shape[1]:
            raise ValueError(
                f"features have {features.shape[1]} columns but targets have {targets.shape[1]}"
            )
        if features.shape[1] < 1:
            raise ValueError("need at least one training sample")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


def ridge_fit(block: TrainingBlock, alpha: float) -> ReadoutMatrix:
    """Fit W minimizing ||Y - W O||^2 + alpha ||W||^2.

    Solves the normal equations W (O O^T + alpha I) = Y O^T through a
    symmetric positive-definite factorization; the matrix is never inverted
    explicitly.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    O, Y = block.features, block.targets
    gram = O @ O.T
    gram[np.diag_indices_from(gram)] += alpha
    try:
        weights = scipy.linalg.solve(gram, O @ Y.T, assume_a="pos").T
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"normal-equation matrix is singular at alpha={alpha}; "
            "increase alpha or supply richer training data"
        ) from exc
    if not np.all(np.isfinite(weights)):
        raise SingularSystemError("fit produced non-finite weights")
    return ReadoutMatrix(weights=weights, alpha=float(alpha))


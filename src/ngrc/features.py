"""Polynomial delay-embedding feature vectors.

The feature vector concatenates an optional constant, a linear block of
time-delayed observations, and the unique polynomial monomials of that
linear block. The canonical ordering is fixed once and for all:

    [constant?, delays most-recent-first, degree blocks in ascending degree]

with each degree block enumerated by the non-decreasing exponent tuples of
:func:`monomial_exponent_table`. Every trained readout matrix is laid out
against this ordering.

One cached, read-only index table decides that layout: row j lists the
``pmax`` entries of ``ext = [1.0, constant_value, lin...]`` whose product is
feature j. The constant is ``(1, 0, ...)``, linear entry a is
``(2 + a, 0, ...)``, and each monomial is its exponent tuple shifted by 2
and padded with 0 (the 1.0). The feature count and names come from it too.

One loop builds every feature: ``_multiply_columns`` multiplies the table's
columns of ``ext`` left to right. :func:`total_features` maps one linear
block, or a batch of them stacked as columns, through it; training
(:func:`feature_block`) and the learned fixed point go through
:func:`total_features`, and the closed-loop rollout through the reusable
buffers of :func:`feature_writer`, so they all see the same vector bit for
bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._checks import integer, integers, number, reject
from .timeseries import TimeSeries


class WarmupError(ValueError):
    """Raised when an index precedes the first fully populated delay window."""


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative description of the feature vector.

    Attributes:
        d: number of input components per sample.
        k: number of time-delay taps.
        s: tap spacing in samples; (s - 1) samples are skipped between taps.
        degrees: polynomial degrees (each >= 2) included in the nonlinear
            block, stored sorted ascending.
        include_constant: whether the constant feature is present.
        constant_value: value of the constant feature when present.
    """

    d: int
    k: int
    s: int = 1
    degrees: tuple[int, ...] = ()
    include_constant: bool = True
    constant_value: float = 1.0

    def __post_init__(self):
        # a count read from JSON must not be truncated to an integer
        degrees = self.degrees
        reject(integer("d", self.d, 1), integer("k", self.k, 1), integer("s", self.s, 1),
               integers("degrees", degrees, 2)
               or (len(set(degrees)) < len(degrees) and f"duplicate degrees in {degrees}"),
               number("constant_value", self.constant_value))
        for name in ("d", "k", "s"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "degrees", tuple(sorted(map(int, degrees))))

    @property
    def n_linear(self) -> int:
        return self.d * self.k

    @property
    def warmup_index(self) -> int:
        """First sample index with a fully populated delay window."""
        return (self.k - 1) * self.s


@lru_cache(maxsize=128)
def _layout(spec: FeatureSpec) -> np.ndarray:
    """The (n_features, pmax) layout table; see the module docstring."""
    n, pmax = spec.n_linear, max(spec.degrees, default=1)
    rows = [(1,)] * spec.include_constant + [(2 + a,) for a in range(n)]
    rows += [tuple(2 + a for a in t) for p in spec.degrees for t in monomial_exponent_table(n, p)]
    table = np.array([row + (0,) * (pmax - len(row)) for row in rows], dtype=np.intp)
    table.flags.writeable = False
    return table


def feature_length(spec: FeatureSpec) -> int:
    """Total feature-vector length: the rows of the layout table."""
    return _layout(spec).shape[0]


def monomial_exponent_table(n_vars: int, p: int) -> list[tuple[int, ...]]:
    """All non-decreasing index tuples of length p over {0..n_vars-1}.

    The tuples come out in lexicographic order; for p=2 this walks the
    upper-triangular entries of the outer product row-major. The product of
    the indexed linear-block entries of tuple t is monomial t.
    """
    reject(integer("n_vars", n_vars, 1), integer("degree", p, 2))
    return list(itertools.combinations_with_replacement(range(n_vars), p))


def total_features(lin: np.ndarray, spec: FeatureSpec) -> np.ndarray:
    """The full feature vectors of linear blocks, in canonical order.

    ``lin`` is one linear block [X_i; X_{i-s}; ...; X_{i-(k-1)s}] of length
    d*k, or a (d*k, n) array holding n such blocks as columns; the result
    has the same trailing shape.
    """
    lin = np.asarray(lin, dtype=float)
    if lin.ndim == 0 or lin.shape[0] != spec.n_linear:
        raise ValueError(
            f"linear block has shape {lin.shape}, spec needs {spec.n_linear} = d*k rows"
        )
    ext = np.empty((spec.n_linear + 2, *lin.shape[1:]))
    ext[0], ext[1], ext[2:] = 1.0, spec.constant_value, lin
    columns = _layout(spec).T
    return _multiply_columns(ext, columns, np.empty((columns.shape[1], *lin.shape[1:])))


def _multiply_columns(ext: np.ndarray, columns, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the product of ``ext[columns[0]]``, ``ext[columns[1]]``, ...

    ``columns`` are the layout table's columns. They are multiplied left to
    right, the association of np.prod, so every caller gets the same bits.
    """
    out[...] = ext[columns[0]]
    for column in columns[1:]:
        out *= ext[column]
    return out


def feature_writer(spec: FeatureSpec):
    """Buffers for forming the features of one linear block after another.

    Returns ``(lin, features)``: write a linear block into ``lin``, a (k, d)
    view whose row j is X_{i-js}, then ``features()`` returns its feature
    vector, equal bit for bit to :func:`total_features` of that block. Each
    call overwrites the vector the last one returned.
    """
    ext = np.empty(spec.n_linear + 2)
    ext[0], ext[1] = 1.0, spec.constant_value
    columns = [np.ascontiguousarray(column) for column in _layout(spec).T]
    out = np.empty(len(columns[0]))
    return ext[2:].reshape(spec.k, spec.d), lambda: _multiply_columns(ext, columns, out)


def feature_block(series: TimeSeries, spec: FeatureSpec, indices) -> np.ndarray:
    """Feature vectors at several sample indices, stacked as columns.

    Column j is :func:`total_features` of the delay window ending at sample
    ``indices[j]``: rows X_i, X_{i-s}, ..., newest first.
    """
    if series.n_components != spec.d:
        raise ValueError(
            f"series has {series.n_components} components but spec.d = {spec.d}"
        )
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and indices.min() < spec.warmup_index:
        raise WarmupError(
            f"index {indices.min()} precedes warm-up: need i >= {spec.warmup_index}"
        )
    if indices.size and indices.max() >= series.n_samples:
        raise IndexError(f"index {indices.max()} out of range for {series.n_samples} samples")
    # Linear block: row (j*d + c) holds component c delayed by j*s samples.
    taps = indices[None, :] - spec.s * np.arange(spec.k)[:, None]  # (k, n)
    lin = series.values[taps]                                      # (k, n, d)
    lin = np.transpose(lin, (0, 2, 1)).reshape(spec.n_linear, -1)  # (k*d, n)
    return total_features(lin, spec)


def feature_names(spec: FeatureSpec, components: list[str] | None = None) -> list[str]:
    """Human-readable labels for each feature, in canonical order.

    Delays are written as e.g. ``x[t-2]`` (lag in samples) and monomials as
    products of linear-block labels.
    """
    if components is None:
        components = [f"x{c}" for c in range(spec.d)]
    if len(components) != spec.d:
        raise ValueError(f"need {spec.d} component names, got {len(components)}")
    lin_names = [name + ("[t]" if j == 0 else f"[t-{j * spec.s}]")
                 for j in range(spec.k) for name in components]
    labels = ["", "const", *lin_names]
    return ["*".join(labels[i] for i in row if i) for row in _layout(spec)]

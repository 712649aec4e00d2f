"""Quantitative attractor verification.

Errors are measured in a uniformly scaled space where the reference
trajectory has unit variance per component, so numbers are comparable
across systems. Long-term climate is checked through the unstable steady
states of the learned map and through the return map of successive local
maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import NumericalError, entries, integer, number, reject
from .features import feature_block, total_features
from .model import Mode, NgrcModel, _training_indices, infer
from .timeseries import TimeSeries


class ReturnMapError(NumericalError):
    """Raised when a trajectory has too few local maxima to form a return map."""


@dataclass(frozen=True)
class ScalingVector:
    """Per-component standard deviations used to scale errors."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        reject(entries("scaling entries", values, positive=True))
        object.__setattr__(self, "values", values)

    @classmethod
    def from_series(cls, series: TimeSeries) -> "ScalingVector":
        return cls(series.values.std(axis=0))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ReturnMap:
    """Successive local maxima of one component, as chained (M_i, M_{i+1}) pairs."""

    maxima: np.ndarray

    def __post_init__(self):
        maxima = np.asarray(self.maxima, dtype=float).ravel()
        if maxima.size < 2:
            raise ValueError("a return map needs at least two maxima")
        object.__setattr__(self, "maxima", maxima)

    @property
    def pairs(self) -> np.ndarray:
        """(n-1, 2) array of consecutive maxima; row j is (M_j, M_{j+1})."""
        return np.column_stack([self.maxima[:-1], self.maxima[1:]])

    def to_csv(self, path) -> None:
        np.savetxt(path, self.pairs, fmt="%.17g", delimiter=",", header="M_i,M_i+1")


@dataclass(frozen=True)
class UssEntry:
    """One steady state comparison: truth vs the model's fixed point."""

    true_state: np.ndarray
    estimated_state: np.ndarray | None
    scaled_distance: float | None


def _check_shapes(predicted: TimeSeries, truth: TimeSeries, scaling: ScalingVector):
    reject(predicted.values.shape != truth.values.shape
           and f"shape mismatch: predicted {predicted.values.shape} vs truth {truth.values.shape}",
           len(scaling) != truth.n_components
           and f"scaling has {len(scaling)} entries for {truth.n_components} components")


def nrmse(predicted: TimeSeries, truth: TimeSeries, scaling: ScalingVector) -> float:
    """Root-mean-square error over all samples and components, after scaling.

    Non-finite predictions (a diverged forecast) propagate to a non-finite
    result rather than raising.
    """
    _check_shapes(predicted, truth, scaling)
    with np.errstate(over="ignore", invalid="ignore"):
        err = (predicted.values - truth.values) / scaling.values
        return float(np.sqrt(np.mean(err**2)))


def training_nrmse(model: NgrcModel, series: TimeSeries) -> float:
    """:func:`nrmse` of a model's fit on the series it was trained on.

    Rebuilds the fit at the indices its trainer used: a forecaster's one-step
    prediction X_i + W f_i against X_{i+1}, or an inferrer's output W f_i
    against its target component (the ``target_index`` of its metadata).
    Each scored component is scaled by its std over the series, and a
    constant component by 1.
    """
    if model.mode is Mode.FORECAST_DELTA:
        idx = _training_indices(model.spec, series.n_samples, need_target=True)
        feats = feature_block(series, model.spec, idx)
        predicted = TimeSeries(series.dt, series.values[idx[0]:-1]
                               + (model.readout.weights @ feats).T)
        scored = series
        first = idx[0] + 1
    else:
        predicted = infer(model, series)
        scored = series.select([model.metadata["target_index"]])
        first = model.spec.warmup_index
    scale = scored.values.std(axis=0)
    scale[scale == 0] = 1.0
    return nrmse(predicted, scored.segment(first, series.n_samples), ScalingVector(scale))


def instantaneous_nrmse(predicted: TimeSeries, truth: TimeSeries,
                        scaling: ScalingVector) -> np.ndarray:
    """Per-sample scaled error norm (the integrand of :func:`nrmse`)."""
    _check_shapes(predicted, truth, scaling)
    with np.errstate(over="ignore", invalid="ignore"):
        err = (predicted.values - truth.values) / scaling.values
        return np.sqrt(np.mean(err**2, axis=1))


def valid_time(predicted: TimeSeries, truth: TimeSeries, scaling: ScalingVector,
               threshold: float, lyapunov_time: float) -> float:
    """Elapsed time before the scaled error first exceeds the threshold.

    Returned in Lyapunov units. If the error never exceeds the threshold
    the full window length is returned. The threshold must be nonnegative
    and the Lyapunov time positive, both finite.
    """
    reject(number("threshold", threshold, 0.0),
           number("lyapunov_time", lyapunov_time, 0.0, open_low=True))
    errors = instantaneous_nrmse(predicted, truth, scaling)
    exceeded = np.nonzero(~(errors <= threshold))[0]  # NaN counts as exceeded
    if exceeded.size == 0:
        return truth.duration / lyapunov_time
    return float(exceeded[0] * truth.dt / lyapunov_time)


def learned_map_residual(model: NgrcModel, states: np.ndarray) -> np.ndarray:
    """The one-step displacement the model predicts from a constant history.

    ``states`` is one state or a (d, n) array of states as columns; the
    result has the same shape. Each column is its own matrix-vector product,
    as for a single state, so its bits do not depend on the other columns.
    """
    if model.mode is not Mode.FORECAST_DELTA:
        raise ValueError("fixed points are defined for forecast models only")
    states = np.asarray(states)
    columns = states.reshape(states.shape[0], -1)
    features = total_features(np.concatenate([columns] * model.spec.k), model.spec)
    residuals = model.readout.weights @ np.ascontiguousarray(features.T)[..., None]
    return residuals[..., 0].T.reshape(states.shape)


def estimate_model_uss(model: NgrcModel, guesses) -> list[np.ndarray | None]:
    """Fixed points of the learned map near each guess.

    Damped Newton iteration on the state repeated across all delay taps. The
    map is a polynomial in that state, so one complex step of h = 1e-20 in
    every component gives its Jacobian exact to rounding (Squire & Trapp,
    *SIAM Review* 40, 1998): no difference is taken, so no digits cancel.
    An entry is None when the Jacobian is singular or the iteration does not
    converge within 200 steps. The iteration stops once a step is shorter
    than 1e-10, and a stalled step alone does not count as convergence: the
    one-step displacement there must also be below 1e-8.
    """
    h = 1e-20
    probes = 1j * h * np.eye(model.spec.d)
    results: list[np.ndarray | None] = []
    # Divergent iterates overflow harmlessly; non-convergence is reported
    # as None instead of a warning storm.
    with np.errstate(over="ignore", invalid="ignore"):
        for guess in guesses:
            x = np.asarray(guess, dtype=float).copy()
            converged = False
            for _ in range(200):
                g = learned_map_residual(model, x)
                jac = learned_map_residual(model, x[:, None] + probes).imag / h
                try:
                    step = np.linalg.solve(jac, g)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                # Backtrack until the residual actually shrinks.
                lam = 1.0
                g_norm = np.linalg.norm(g)
                while lam > 1e-4:
                    if np.linalg.norm(learned_map_residual(model, x - lam * step)) <= g_norm:
                        break
                    lam *= 0.5
                x_new = x - lam * step
                if np.linalg.norm(x_new - x) < 1e-10:
                    x = x_new
                    converged = np.linalg.norm(learned_map_residual(model, x)) < 1e-8
                    break
                x = x_new
            results.append(x if converged else None)
    return results


def uss_report(model: NgrcModel, true_states, scaling: ScalingVector) -> tuple[UssEntry, ...]:
    """Compare each true steady state with the model fixed point seeded at it."""
    estimates = estimate_model_uss(model, true_states)
    entries = []
    for true_state, est in zip(true_states, estimates):
        true_state = np.asarray(true_state, dtype=float)
        if est is None:
            entries.append(UssEntry(true_state, None, None))
        else:
            dist = float(np.linalg.norm((est - true_state) / scaling.values))
            entries.append(UssEntry(true_state, est, dist))
    return tuple(entries)


def extract_return_map(series: TimeSeries, component: int) -> ReturnMap:
    """Successive refined local maxima of one component of the whole series.

    Discrete maxima (strictly above both neighbours) are refined by
    interpolating a degree-4 polynomial through the 5 surrounding samples
    and maximizing it between the two neighbours. Maxima whose stencil holds
    a non-finite sample (a diverged run) are dropped. Pass a segment to map
    a shorter window.
    """
    reject(integer("component", component, 0)
           or (component >= series.n_components
               and f"component must be < {series.n_components}, got {component}"))
    x = series.values[:, component]
    interior = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]))[0] + 1
    # drop maxima too close to an end for the 5-point stencil
    interior = interior[(interior >= 2) & (interior <= x.size - 3)]
    stencils = x[interior[:, None] + np.arange(-2, 3)]
    stencils = stencils[np.isfinite(stencils).all(axis=1)]
    if stencils.shape[0] < 2:
        raise ReturnMapError(
            f"found {stencils.shape[0]} local maxima in {series.duration:g} time units; "
            "need at least 2"
        )
    return ReturnMap(_refine_maxima(stencils))


# Row j times a 5-sample stencil, over 24, is coefficient j (power basis in
# the offset from the middle sample) of the quartic through the samples.
_QUARTIC_FIT = np.array([[0.0, 0.0, 24.0, 0.0, 0.0],
                         [2.0, -16.0, 0.0, 16.0, -2.0],
                         [-1.0, 16.0, -30.0, 16.0, -1.0],
                         [-2.0, 4.0, 0.0, -4.0, 2.0],
                         [1.0, -4.0, 6.0, -4.0, 1.0]])


def _refine_maxima(stencils: np.ndarray) -> np.ndarray:
    """Peak of the degree-4 interpolant of each 5-sample row, on [-1, 1].

    The candidates are the interval ends and the real roots of the
    derivative inside it; the roots are the eigenvalues of the cubic's
    companion matrices, all found in one batched call.
    """
    n = stencils.shape[0]
    coeffs = stencils @ _QUARTIC_FIT.T / 24.0
    deriv = coeffs[:, 1:] * np.arange(1.0, 5.0)
    roots = np.full((n, 3), -1.0 + 0.0j)
    cubic = deriv[:, 3] != 0
    companion = np.zeros((np.count_nonzero(cubic), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, :, 2] = -deriv[cubic, :3] / deriv[cubic, 3:]
    roots[cubic] = np.linalg.eigvals(companion)
    for row in np.flatnonzero(~cubic):  # an interpolant of lower degree
        found = np.polynomial.polynomial.polyroots(deriv[row])
        roots[row, : found.size] = found
    inside = (np.abs(roots.imag) < 1e-9) & (np.abs(roots.real) <= 1.0)
    candidates = np.column_stack([-np.ones(n), np.ones(n), np.where(inside, roots.real, -1.0)])
    values = coeffs[:, 4:]
    for j in (3, 2, 1, 0):  # Horner, as polyval evaluates
        values = coeffs[:, j : j + 1] + values * candidates
    return values.max(axis=1)


# Predicted pairs per block in return_map_deviation; a block's squared
# distances fill a (_DEVIATION_ROWS, n_truth) array.
_DEVIATION_ROWS = 64


def return_map_deviation(predicted: ReturnMap, truth: ReturnMap) -> float:
    """Mean distance from each predicted map point to its nearest truth point.

    Exact, in memory linear in the inputs. The squared distances are formed
    one block of predicted pairs at a time as dx*dx + dy*dy, the operations
    and order of a full (n_pred, n_truth) table, and the square root of a
    row minimum is the minimum of the row's square roots, so the result has
    the same bits as that table would give. A NaN maximum gives NaN.
    """
    px, py = predicted.maxima[:-1], predicted.maxima[1:]
    tx, ty = truth.maxima[:-1], truth.maxima[1:]
    nearest = np.empty(px.size)
    for start in range(0, px.size, _DEVIATION_ROWS):
        rows = slice(start, start + _DEVIATION_ROWS)
        dx = px[rows, None] - tx
        dy = py[rows, None] - ty
        nearest[rows] = (dx * dx + dy * dy).min(axis=1)
    return float(np.mean(np.sqrt(nearest)))

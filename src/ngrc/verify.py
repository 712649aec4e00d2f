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

from .features import total_features
from .model import Mode, NgrcModel
from .systems import DOUBLE_SCROLL_PARAMS, LORENZ_PARAMS
from .timeseries import TimeSeries


class ReturnMapError(RuntimeError):
    """Raised when a trajectory has too few local maxima to form a return map."""


@dataclass(frozen=True)
class ScalingVector:
    """Per-component standard deviations used to scale errors."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size == 0 or np.any(values <= 0):
            raise ValueError("scaling entries must be strictly positive")
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
    if predicted.values.shape != truth.values.shape:
        raise ValueError(
            f"shape mismatch: predicted {predicted.values.shape} vs truth {truth.values.shape}"
        )
    if len(scaling) != truth.n_components:
        raise ValueError(
            f"scaling has {len(scaling)} entries for {truth.n_components} components"
        )


def nrmse(predicted: TimeSeries, truth: TimeSeries, scaling: ScalingVector) -> float:
    """Root-mean-square error over all samples and components, after scaling.

    Non-finite predictions (a diverged forecast) propagate to a non-finite
    result rather than raising.
    """
    _check_shapes(predicted, truth, scaling)
    with np.errstate(over="ignore", invalid="ignore"):
        err = (predicted.values - truth.values) / scaling.values
        return float(np.sqrt(np.mean(err**2)))


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
    the full window length is returned.
    """
    errors = instantaneous_nrmse(predicted, truth, scaling)
    exceeded = np.nonzero(~(errors <= threshold))[0]  # NaN counts as exceeded
    if exceeded.size == 0:
        return truth.duration / lyapunov_time
    return float(exceeded[0] * truth.dt / lyapunov_time)


def lorenz_uss() -> list[np.ndarray]:
    """The three steady states of the Lorenz system, analytically."""
    beta, rho = LORENZ_PARAMS["beta"], LORENZ_PARAMS["rho"]
    r = np.sqrt(beta * (rho - 1.0))
    return [
        np.zeros(3),
        np.array([r, r, rho - 1.0]),
        np.array([-r, -r, rho - 1.0]),
    ]


def double_scroll_uss_equation(v1: float) -> float:
    """Residual whose positive root gives the nonzero steady-state voltage."""
    p = DOUBLE_SCROLL_PARAMS
    return v1 / p["r2"] * (p["r1"] - p["r4"] - p["r2"]) + 2.0 * p["r1"] * p["ir"] * np.sinh(
        p["alpha"] * (1.0 - p["r4"] / p["r1"]) * v1
    )


def solve_double_scroll_uss() -> list[np.ndarray]:
    """The origin plus the symmetric steady-state pair of the circuit.

    The positive root of the transcendental balance is bracketed on
    [1e-6, 5] and polished by Brent's method (bisection/secant hybrid) to
    residual below 1e-12; the full states follow from the zero-derivative
    relations V2 = V1*R4/R1, I = V1/R1.
    """
    # Imported here: scipy.optimize costs every other task import time and memory.
    from scipy.optimize import brentq

    p = DOUBLE_SCROLL_PARAMS
    lo, hi = 1e-6, 5.0
    if double_scroll_uss_equation(lo) * double_scroll_uss_equation(hi) >= 0:
        raise RuntimeError(f"no sign change on [{lo}, {hi}]: cannot bracket the root")
    v1 = brentq(double_scroll_uss_equation, lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(double_scroll_uss_equation(v1)) > 1e-12:
        raise RuntimeError(f"root polishing stalled at residual {double_scroll_uss_equation(v1)}")
    state = np.array([v1, v1 * p["r4"] / p["r1"], v1 / p["r1"]])
    return [np.zeros(3), state, -state]


def learned_map_residual(model: NgrcModel, state: np.ndarray) -> np.ndarray:
    """The one-step displacement the model predicts from a constant history."""
    if model.mode is not Mode.FORECAST_DELTA:
        raise ValueError("fixed points are defined for forecast models only")
    lin = np.tile(np.asarray(state, dtype=float), model.spec.k)
    return model.readout.weights @ total_features(lin, model.spec)


def estimate_model_uss(model: NgrcModel, guesses) -> list[np.ndarray | None]:
    """Fixed points of the learned map near each guess.

    Damped Newton iteration on the state repeated across all delay taps,
    with a central-difference Jacobian; an entry is None when the iteration
    does not converge within 200 steps. The iteration stops once a step is
    shorter than 1e-10, and a stalled step alone does not count as
    convergence: the one-step displacement there must also be below 1e-8.
    """
    results: list[np.ndarray | None] = []
    # Divergent iterates overflow harmlessly; non-convergence is reported
    # as None instead of a warning storm.
    with np.errstate(over="ignore", invalid="ignore"):
        for guess in guesses:
            x = np.asarray(guess, dtype=float).copy()
            converged = False
            for _ in range(200):
                g = learned_map_residual(model, x)
                jac = _residual_jacobian(model, x)
                try:
                    step = np.linalg.solve(jac, g)
                except np.linalg.LinAlgError:
                    step, *_ = np.linalg.lstsq(jac, g, rcond=None)
                if not np.all(np.isfinite(step)):
                    break
                # Backtrack until the residual actually shrinks.
                lam = 1.0
                g_norm = np.linalg.norm(g)
                while lam > 1e-4:
                    candidate = x - lam * step
                    if np.linalg.norm(learned_map_residual(model, candidate)) <= g_norm or g_norm == 0:
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


def _residual_jacobian(model: NgrcModel, state: np.ndarray) -> np.ndarray:
    """Central differences with step 1e-6 * (1 + |state[c]|) in component c."""
    d = model.spec.d
    jac = np.empty((model.output_dim, d))
    for c in range(d):
        step = 1e-6 * (1.0 + abs(state[c]))
        plus, minus = state.copy(), state.copy()
        plus[c] += step
        minus[c] -= step
        jac[:, c] = (learned_map_residual(model, plus) - learned_map_residual(model, minus)) / (
            2.0 * step
        )
    return jac


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
    and maximizing it between the two neighbours. Pass a segment to map a
    shorter window.
    """
    x = series.values[:, component]
    interior = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]))[0] + 1
    maxima = []
    for m in interior:
        if m < 2 or m > x.size - 3:
            continue  # not enough samples for the 5-point stencil
        maxima.append(_refine_maximum(x[m - 2 : m + 3]))
    if len(maxima) < 2:
        raise ReturnMapError(
            f"found {len(maxima)} local maxima in {series.duration:g} time units; "
            "need at least 2"
        )
    return ReturnMap(np.array(maxima))


_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _refine_maximum(values: np.ndarray) -> float:
    """Peak of the degree-4 interpolant of 5 samples, on the middle interval."""
    coeffs = np.polynomial.polynomial.polyfit(_STENCIL, values, 4)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    roots = np.polynomial.polynomial.polyroots(deriv)
    candidates = [-1.0, 1.0]
    for r in roots:
        if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0:
            candidates.append(float(r.real))
    best = max(np.polynomial.polynomial.polyval(np.array(candidates), coeffs))
    return float(best)


def return_map_deviation(predicted: ReturnMap, truth: ReturnMap) -> float:
    """Mean distance from each predicted map point to its nearest truth point."""
    p, t = predicted.pairs, truth.pairs
    diffs = p[:, None, :] - t[None, :, :]
    dists = np.sqrt(np.sum(diffs**2, axis=2))
    return float(np.mean(dists.min(axis=1)))

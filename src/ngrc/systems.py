"""Ground-truth chaotic systems and their integrators.

Deterministic trajectories come from an adaptive explicit Runge-Kutta pair
sampled on the uniform dt grid: Bogacki-Shampine 3(2) ("RK23", the default)
through its dense output, or Dormand-Prince 8(5,3) ("DOP853") by landing a
step on every grid time. RK23 at a loose tolerance gives the sampling jitter
that the forecast tasks' regularization is tuned to; at rtol 1e-8 DOP853
needs about a tenth of RK23's RHS evaluations on the Lorenz system.

Both pairs run in this module's own stepping loop, ``_runge_kutta``, with
scipy's tableaus, step controller, initial-step rule and array expressions,
and the same sequence of RHS calls, without the solver objects around them.
RK23 repeats ``scipy.integrate.solve_ivp(method="RK23", t_eval=grid)`` bit
for bit. DOP853 repeats, bit for bit, scipy's DOP853 solver stepped to each
grid time in turn, which cuts its last step there as it cuts one at
``t_bound``; that is not ``solve_ivp(t_eval=grid)``, which interpolates.

Noise-driven trajectories use a fixed-substep second-order scheme with a
piecewise constant Gaussian forcing, scaled so the integrated forcing has
the requested RMS per unit time; independent noise paths are stepped
together as one ensemble.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _dop853
from .timeseries import TimeSeries


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails to reach the end time."""


@dataclass(frozen=True)
class SystemDef:
    """A named autonomous ODE vector field."""

    name: str
    dim: int
    lyapunov_time: float
    rhs: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntegrationConfig:
    """How to integrate: grid, span, start point, method, tolerances, noise."""

    dt: float
    t_span: tuple[float, float]
    initial_state: np.ndarray
    rtol: float = 1e-8
    atol: float = 1e-10
    seed: int | None = None
    noise_rms: float = 0.0
    substeps: int = 20
    method: str = "RK23"

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("integration tolerances must be positive")
        if not all(math.isfinite(t) for t in self.t_span):
            raise ValueError(f"t_span must be finite, got {self.t_span}")
        steps = (self.t_span[1] - self.t_span[0]) / self.dt
        if not math.isfinite(steps):
            raise ValueError(f"dt = {self.dt} divides t_span {self.t_span} into too many steps")
        if not round(steps) >= 1:
            raise ValueError(f"time span {self.t_span} holds no step of dt = {self.dt}")
        if self.noise_rms < 0:
            raise ValueError(f"noise_rms must be nonnegative, got {self.noise_rms}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.method not in _PAIRS:
            raise ValueError(f"method must be one of {tuple(_PAIRS)}, got {self.method!r}")
        state = np.asarray(self.initial_state, dtype=float)
        if state.ndim != 1 or not np.all(np.isfinite(state)):
            raise ValueError(f"initial_state must be a finite 1-D vector, got {state}")
        object.__setattr__(self, "initial_state", state)

    def grid(self) -> np.ndarray:
        """The sample times t0 + m*dt covering the span (exact arithmetic)."""
        t0, t1 = self.t_span
        n = int(round((t1 - t0) / self.dt)) + 1
        return t0 + self.dt * np.arange(n)


LORENZ_PARAMS = {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}

DOUBLE_SCROLL_PARAMS = {"r1": 1.2, "r2": 3.44, "r4": 0.193, "alpha": 11.6, "ir": 2.25e-5}

# Pre-transient starting points for on-attractor initial conditions.
_SEED_STATE = {"lorenz63": (1.0, 1.0, 1.0), "double_scroll": (0.1, 0.1, 0.1)}


def lorenz63_rhs(state) -> np.ndarray:
    """Vector field of the three-variable Lorenz convection model.

    ``state`` is one state vector or a (3, paths) array of states as columns;
    a vector is unpacked into Python floats, which are cheaper to combine
    than numpy scalars and round the same.
    """
    x, y, z = state.tolist() if state.ndim == 1 else state
    return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z])


def double_scroll_rhs(state) -> np.ndarray:
    """Vector field of the dimensionless double-scroll chaotic circuit."""
    v1, v2, i = state
    p = DOUBLE_SCROLL_PARAMS
    dv = v1 - v2
    sinh_term = 2.0 * p["ir"] * np.sinh(p["alpha"] * dv)
    return np.array(
        [v1 / p["r1"] - dv / p["r2"] - sinh_term, dv / p["r2"] + sinh_term - i, v2 - p["r4"] * i]
    )


def lorenz63() -> SystemDef:
    return SystemDef(
        name="lorenz63",
        dim=3,
        lyapunov_time=1.1,
        rhs=lorenz63_rhs,
    )


def double_scroll() -> SystemDef:
    return SystemDef(
        name="double_scroll",
        dim=3,
        lyapunov_time=7.81,
        rhs=double_scroll_rhs,
    )


def get_system(name: str) -> SystemDef:
    factories = {"lorenz63": lorenz63, "double_scroll": double_scroll}
    if name not in factories:
        raise ValueError(f"unknown system {name!r}; expected one of {sorted(factories)}")
    return factories[name]()


# Bogacki-Shampine 3(2) tableau and dense-output matrix, as in
# scipy.integrate.RK23. The stage nodes are not needed: every vector field
# here is autonomous. The Dormand-Prince 8(5,3) tableau is in ``_dop853``.
_RK23_A = np.array([
    [0, 0, 0],
    [1/2, 0, 0],
    [0, 3/4, 0]
])
_RK23_B = np.array([2/9, 1/3, 4/9])
_RK23_E = np.array([5/72, -1/12, -1/9, 1/8])
_RK23_P = np.array([[1, -4 / 3, 5 / 9],
                    [0, 1, -2/3],
                    [0, 4/3, -8/9],
                    [0, -1, 1]])
# scipy's step controller: safety factor, step-change bounds and rtol floor.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_MIN_RTOL = 100 * np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    """scipy's RMS norm: the same dot product and correctly rounded roots."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk23_error_norm(KT: np.ndarray, h: float, scale: np.ndarray) -> float:
    """RMS of the embedded 2nd-order error estimate, relative to scale."""
    return _rms(np.dot(KT, _RK23_E) * h / scale)


def _rk23_dense(K, h, y_old, x) -> np.ndarray:
    """Cubic Hermite interpolant of the step at normalized times x.

    The powers x, x^2, x^3 are associated as scipy's ``cumprod`` forms them.
    """
    Q = K.T.dot(_RK23_P)
    p = np.empty((3, x.size))
    p[0] = x
    np.multiply(x, x, out=p[1])
    np.multiply(p[1], x, out=p[2])
    y_dense = h * np.dot(Q, p)
    y_dense += y_old[:, None]
    return y_dense.T


def _dop853_error_norm(KT: np.ndarray, h: float, scale: np.ndarray) -> float:
    """The 5th-order error estimate damped by the 3rd-order one, as in DOP853.

    The squared norms are formed as scipy forms them, as the square of a
    rounded square root, which is not always the dot product itself.
    """
    err5 = np.dot(KT, _dop853.E5) / scale
    err3 = np.dot(KT, _dop853.E3) / scale
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * scale.size)


@dataclass(frozen=True)
class _RungeKuttaPair:
    """An embedded explicit Runge-Kutta pair and how it is sampled.

    ``A`` holds the stage coefficients, one row per stage; row ``stages`` is
    ``B``, whose stage is the slope at the new point. ``error_order`` is the
    order of the error estimator. ``error_norm(K[:stages + 1].T, h, scale)``
    decides acceptance. ``dense(K, h, y_old, x)`` gives the (len(x), dim)
    values of the step's interpolant at normalized times x; a pair without
    one (``dense=None``) lands its steps on the grid times instead.
    """

    name: str
    A: np.ndarray
    B: np.ndarray
    stages: int
    error_order: int
    error_norm: Callable[[np.ndarray, float, np.ndarray], float]
    dense: Callable[..., np.ndarray] | None


_PAIRS = {
    "RK23": _RungeKuttaPair("RK23", _RK23_A, _RK23_B, 3, 2, _rk23_error_norm, _rk23_dense),
    "DOP853": _RungeKuttaPair("DOP853", _dop853.A, _dop853.B, _dop853.STAGES, 7,
                              _dop853_error_norm, None),
}


def _initial_step(rhs, y0, f0, interval, rtol, atol, error_order) -> float:
    """scipy's ``select_initial_step`` (one RHS call)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (error_order + 1))
    return min(100 * h0, h1, interval)


def _runge_kutta(pair: _RungeKuttaPair, rhs, grid: np.ndarray, y0: np.ndarray,
                 rtol: float, atol: float) -> np.ndarray:
    """The pair stepped from grid[0] to grid[-1] and sampled on grid.

    RK23 steps freely and samples its dense output on the grid: the
    (len(grid), dim) result is what ``solve_ivp(lambda t, y: rhs(y),
    (grid[0], grid[-1]), y0, method="RK23", t_eval=grid, rtol=rtol,
    atol=atol)`` returns transposed, bit for bit. DOP853 has no dense output
    here: each step is cut short at the next grid time, as scipy cuts a step
    at ``t_bound``, and the state it lands on is the sample. The result is
    what ``scipy.integrate.DOP853(fun, grid[0], y0, grid[-1], rtol, atol)``
    reaches, bit for bit, when its ``t_bound`` is moved to each grid time in
    turn and it is stepped there.

    Both make scipy's RHS calls: one for f0, one for the initial step and
    ``stages`` per attempted step. Every array expression that combines more
    than one term is scipy's, with the same operands and shapes; only the
    solver objects, the norm's call path, the interpolant's
    ``tile``/``cumprod`` and the per-step ``searchsorted`` are replaced.
    Both pairs share this loop, its step controller and its initial-step
    rule; they differ in the tableau, the error norm and the sampling.
    """
    times = grid.tolist()
    t, t_end = times[0], times[-1]
    rtol = max(rtol, _MIN_RTOL)
    out = np.empty((len(times), y0.size))
    y = y0
    f = rhs(y)
    if not np.all(np.isfinite(f)):
        # A NaN here makes scipy's first step size NaN, and it never returns.
        raise IntegrationError(f"{pair.name}: the vector field is not finite at t = {t!r}")
    h_abs = _initial_step(rhs, y, f, t_end - t, rtol, atol, pair.error_order)
    error_exponent = -1 / (pair.error_order + 1)
    A, B, stages, dense = pair.A, pair.B, pair.stages, pair.dense
    # K holds the stages in rows, then the new slope; scipy combines them
    # through these views.
    K = np.empty((stages + 1, y0.size))
    step = [(s, K[:s].T, A[s, :s]) for s in range(1, stages)]
    BT, KT = K[:stages].T, K[:stages + 1].T
    # A landing pair samples the start itself; RK23's interpolant samples it.
    sampled = 0 if dense else bisect_right(times, t)
    out[:sampled] = y
    while t < t_end:
        bound = t_end if dense else times[sampled]
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"{pair.name} step size fell below the float spacing at t = {t!r}")
            t_new = min(t + h_abs, bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, KsT, a in step:
                K[s] = rhs(y + np.dot(KsT, a) * h)
            y_new = y + h * np.dot(BT, B)
            f_new = rhs(y_new)
            K[stages] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = pair.error_norm(KT, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** error_exponent)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        stop = bisect_right(times, t, sampled)
        if stop > sampled:
            if dense:
                out[sampled:stop] = dense(K, h, y_old, (grid[sampled:stop] - t_old) / h)
            else:
                out[sampled:stop] = y
            sampled = stop
    return out


def integrate(system: SystemDef, config: IntegrationConfig) -> TimeSeries:
    """Deterministic trajectory sampled on the uniform dt grid.

    Adaptive stepping with ``config.method`` controls the local error at
    (rtol, atol). RK23 evaluates its dense output at the grid times; DOP853
    cuts a step short at each grid time, so its steps depend on the grid.
    Raises IntegrationError if the field is not finite at the start or the
    step size collapses.
    """
    grid = config.grid()
    values = _runge_kutta(_PAIRS[config.method], system.rhs, grid, config.initial_state,
                          config.rtol, config.atol)
    return TimeSeries(dt=config.dt, values=values, t0=float(grid[0]))


def integrate_noisy(system: SystemDef, config: IntegrationConfig,
                    paths: int = 1) -> list[TimeSeries]:
    """Independent trajectories of the vector field driven by Gaussian forcing.

    Each dt interval is split into ``substeps`` equal substeps of length h.
    At every substep an independent forcing vector is drawn with
    per-component standard deviation noise_rms/sqrt(h), held constant over
    the substep, and the forced field is advanced with one explicit
    second-order (Heun) step. The integrated forcing then has RMS
    ``noise_rms`` per unit time, and noise_rms = 0 degenerates to a
    deterministic fixed-step run.

    Returns one series per path, all started from ``config.initial_state``.
    Path i draws its forcing, substep by substep, from a generator seeded by
    child i of ``SeedSequence(config.seed)``, so it does not depend on how
    many paths are run alongside it. The paths are stepped together as one
    (dim, paths) state; the RHS acts elementwise on each column, so every
    path is bit-identical to a run of its own. The forcing is drawn one dt
    interval at a time, which keeps memory flat in the run length.

    Raises IntegrationError, naming the first path and sample time, as soon
    as a sample of any path is not finite.
    """
    if config.seed is None:
        raise ValueError("integrate_noisy requires a seed for reproducibility")
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    grid = config.grid()
    h = config.dt / config.substeps
    sigma = config.noise_rms / np.sqrt(h)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(paths)]
    draws = (config.substeps, system.dim)
    rhs = system.rhs
    state = np.repeat(config.initial_state[:, None], paths, axis=1)
    values = np.empty((len(grid), system.dim, paths))
    values[0] = state
    # A diverging path overflows to inf/nan on its way out; that is reported
    # below as IntegrationError, so the arithmetic itself must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, len(grid)):
            forcing = np.stack([rng.normal(0.0, sigma, size=draws) for rng in rngs], axis=-1)
            for xi in forcing:
                k1 = rhs(state) + xi
                k2 = rhs(state + h * k1) + xi
                state = state + 0.5 * h * (k1 + k2)
            values[m] = state
            diverged = np.flatnonzero(~np.isfinite(state).all(axis=0))
            if diverged.size:
                raise IntegrationError(
                    f"noisy path {diverged[0]} of {system.name} is not finite "
                    f"at t = {grid[m]:g}")
    return [TimeSeries(dt=config.dt, values=values[:, :, i], t0=float(grid[0]))
            for i in range(paths)]


def on_attractor_state(system: SystemDef, transient: float, rtol: float = 1e-8,
                       atol: float = 1e-10, method: str = "RK23") -> np.ndarray:
    """The state at time ``transient`` of a run from a canonical start point.

    Each system has one fixed off-attractor start point, so the result is
    deterministic. The run is sampled only at its end (a grid of
    [0, transient]), so RK23's dense output is evaluated once and DOP853
    steps freely until its last step.
    """
    if not 0 < transient < math.inf:
        raise ValueError(f"transient must be a positive finite time, got {transient!r}")
    start = np.array(_SEED_STATE[system.name])
    config = IntegrationConfig(dt=transient, t_span=(0.0, transient), initial_state=start,
                               rtol=rtol, atol=atol, method=method)
    return integrate(system, config).values[-1].copy()

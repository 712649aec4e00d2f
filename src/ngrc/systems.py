"""Ground-truth chaotic systems, their steady states and their integrators.

Deterministic trajectories come from an adaptive explicit Runge-Kutta pair
sampled on the uniform dt grid: Bogacki-Shampine 3(2) ("RK23", the default)
through its dense output, or Dormand-Prince 8(5,3) ("DOP853") by landing a
step on every grid time. RK23 at a loose tolerance gives the sampling jitter
that the forecast tasks' regularization is tuned to; at rtol 1e-8 DOP853
needs about a tenth of RK23's RHS evaluations on the Lorenz system.

Both pairs run in this module's own stepping loop, ``_runge_kutta``, with
scipy's tableaus, step controller and initial-step rule and the same
sequence of RHS calls, without the solver objects around them. Its
reductions (the stage and error matrix-vector products, the norms' dot
products, the interpolant) are numpy's BLAS calls on the operands and
shapes scipy uses, since BLAS sums in its own order; all the elementwise
arithmetic around them runs on lists of Python floats, which round as
numpy's elementwise operations do and cost far less on three components.
RK23's interpolant is not evaluated step by step: the steps that hold grid
times are recorded in a fixed-size chunk, and each chunk is sampled with a
few stacked matrix products, which make the same BLAS call per step that
one step's products make. RK23 repeats
``scipy.integrate.solve_ivp(method="RK23", t_eval=grid)`` bit for bit.
DOP853 repeats, bit for bit, scipy's DOP853 solver stepped to each
grid time in turn, which cuts its last step there as it cuts one at
``t_bound``; that is not ``solve_ivp(t_eval=grid)``, which interpolates.

Noise-driven trajectories use a fixed-substep second-order scheme with a
piecewise constant Gaussian forcing, scaled so the integrated forcing has
the requested RMS per unit time; independent noise paths are stepped
together as one ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _dop853
from ._checks import NumericalError, count, integer, number, one_of, reject, trusted
from .timeseries import TimeSeries


class IntegrationError(NumericalError):
    """Raised when the adaptive integrator fails to reach the end time."""


@dataclass(frozen=True)
class SystemDef:
    """A named autonomous ODE vector field and what the tasks need to know of it.

    ``rhs`` takes a sequence of ``dim`` components and returns the list of
    their ``dim`` slopes, each of the same kind as the components: floats
    for the list of floats that ``integrate`` passes, numpy scalars for the
    vector that scipy passes, and rows of paths for the (dim, paths) array
    of ``integrate_noisy``. ``components`` names the state components,
    ``start`` is the fixed off-attractor point that ``on_attractor_state``
    runs its transient from, ``steady_states()`` gives the true steady
    states, and the maxima of component ``return_map_component`` form the
    return map.
    """

    name: str
    components: tuple[str, ...]
    lyapunov_time: float
    rhs: Callable[[Sequence], list]
    start: tuple[float, ...]
    steady_states: Callable[[], list[np.ndarray]]
    return_map_component: int

    @property
    def dim(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class IntegrationConfig:
    """How to integrate: grid, span, start point, method, tolerances, noise.

    Both integrators read ``dt``, ``t_span`` and ``initial_state``.
    :func:`integrate` reads ``method``, ``rtol`` and ``atol``, and refuses a
    config with ``noise_rms > 0``; :func:`integrate_noisy` reads ``seed``,
    ``noise_rms`` and ``substeps`` and ignores the other three. ``seed`` is
    None or >= 0, and ``substeps`` at most 2**53, so that dt / substeps is a float.
    """

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
        state = np.asarray(self.initial_state, dtype=float)
        t0, t1 = self.t_span
        reject(number("dt", self.dt, 0.0, open_low=True),
               number("t_span", t0) or number("t_span", t1),
               number("integration tolerances: rtol", self.rtol, 0.0, open_low=True),
               number("integration tolerances: atol", self.atol, 0.0, open_low=True),
               number("noise_rms", self.noise_rms, 0.0),
               self.seed is not None and integer("seed", self.seed, 0),
               count("substeps", self.substeps),
               one_of("method", self.method, tuple(_PAIRS)),
               (state.ndim != 1 or not np.isfinite(state).all())
               and f"initial_state must be a finite 1-D vector, got {state}")
        steps = (t1 - t0) / self.dt
        # round() is reached only for a finite count
        reject(not math.isfinite(steps)
               and f"dt = {self.dt} divides t_span {self.t_span} into too many steps"
               or not round(steps) >= 1
               and f"time span {self.t_span} holds no step of dt = {self.dt}")
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "substeps", int(self.substeps))
        object.__setattr__(self, "seed", None if self.seed is None else int(self.seed))

    def grid(self) -> np.ndarray:
        """The sample times t0 + m*dt covering the span (exact arithmetic)."""
        t0, t1 = self.t_span
        n = int(round((t1 - t0) / self.dt)) + 1
        return t0 + self.dt * np.arange(n)


LORENZ_PARAMS = {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}
_SIGMA, _RHO, _BETA = LORENZ_PARAMS.values()

DOUBLE_SCROLL_PARAMS = {"r1": 1.2, "r2": 3.44, "r4": 0.193, "alpha": 11.6, "ir": 2.25e-5}
_R1, _R2, _R4, _ALPHA, _IR = DOUBLE_SCROLL_PARAMS.values()


def lorenz63_rhs(state):
    """Vector field of the three-variable Lorenz convection model.

    ``state`` is any sequence of the three components (see ``SystemDef``);
    the slopes come back as a list of the same kind.
    """
    x, y, z = state
    return [_SIGMA * (y - x), x * (_RHO - z) - y, x * y - _BETA * z]


def double_scroll_rhs(state):
    """Vector field of the dimensionless double-scroll chaotic circuit.

    Takes and gives components as ``lorenz63_rhs`` does; the ``np.sinh``
    term is a numpy float for float components.
    """
    v1, v2, i = state
    dv = v1 - v2
    sinh_term = 2.0 * _IR * np.sinh(_ALPHA * dv)
    return [v1 / _R1 - dv / _R2 - sinh_term, dv / _R2 + sinh_term - i, v2 - _R4 * i]


def lorenz_uss() -> list[np.ndarray]:
    """The three steady states of the Lorenz system, analytically."""
    r = np.sqrt(_BETA * (_RHO - 1.0))
    return [np.zeros(3), np.array([r, r, _RHO - 1.0]), np.array([-r, -r, _RHO - 1.0])]


def double_scroll_uss_equation(v1: float) -> float:
    """Residual whose positive root gives the nonzero steady-state voltage."""
    return v1 / _R2 * (_R1 - _R4 - _R2) + 2.0 * _R1 * _IR * np.sinh(
        _ALPHA * (1.0 - _R4 / _R1) * v1)


def solve_double_scroll_uss() -> list[np.ndarray]:
    """The origin plus the symmetric steady-state pair of the circuit.

    The positive root of the transcendental balance is bracketed on
    [1e-6, 5] and bisected until the bracket ends are adjacent floats; the
    end with the smaller residual is the root, and its residual must be
    below 1e-12. The full states follow from the zero-derivative relations
    V2 = V1*R4/R1, I = V1/R1.
    """
    lo, hi = 1e-6, 5.0
    f_lo, f_hi = double_scroll_uss_equation(lo), double_scroll_uss_equation(hi)
    if f_lo * f_hi >= 0:
        raise NumericalError(f"no sign change on [{lo}, {hi}]: cannot bracket the root")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = double_scroll_uss_equation(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    v1, residual = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    if abs(residual) > 1e-12:
        raise NumericalError(f"bisection stalled at residual {residual}")
    state = np.array([v1, v1 * _R4 / _R1, v1 / _R1])
    return [np.zeros(3), state, -state]


# The factories build a SystemDef on every call, so that it holds the vector
# field the module names at that moment.
def lorenz63() -> SystemDef:
    return SystemDef(name="lorenz63", components=("x", "y", "z"), lyapunov_time=1.1,
                     rhs=lorenz63_rhs, start=(1.0, 1.0, 1.0), steady_states=lorenz_uss,
                     return_map_component=2)


def double_scroll() -> SystemDef:
    return SystemDef(name="double_scroll", components=("V1", "V2", "I"), lyapunov_time=7.81,
                     rhs=double_scroll_rhs, start=(0.1, 0.1, 0.1),
                     steady_states=solve_double_scroll_uss, return_map_component=0)


# Bogacki-Shampine 3(2) tableau and dense-output matrix, as in
# scipy.integrate.RK23. The stage nodes are not needed: every vector field
# here is autonomous. The Dormand-Prince 8(5,3) tableau is in ``_dop853``.
_RK23_A = np.array([
    [0, 0, 0],
    [1/2, 0, 0],
    [0, 3/4, 0],
    [2/9, 1/3, 4/9]
])
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
# RK23 steps that hold grid times are recorded this many at a time before
# their interpolants are evaluated together (see ``_runge_kutta``).
_DENSE_CHUNK = 128


def _rms(x) -> float:
    """scipy's RMS norm: the same dot product and correctly rounded roots."""
    x = np.asarray(x)
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _rk23_error_norm(KT: np.ndarray, h: float, scale: list[float]) -> float:
    """RMS of the embedded 2nd-order error estimate, relative to scale."""
    return _rms([e * h / s for e, s in zip(KT.dot(_RK23_E).tolist(), scale)])


def _dop853_error_norm(KT: np.ndarray, h: float, scale: list[float]) -> float:
    """The 5th-order error estimate damped by the 3rd-order one, as in DOP853.

    The squared norms are formed as scipy forms them, as the square of a
    rounded square root, which is not always the dot product itself.
    """
    err5 = np.array([e / s for e, s in zip(KT.dot(_dop853.E5).tolist(), scale)])
    err3 = np.array([e / s for e, s in zip(KT.dot(_dop853.E3).tolist(), scale)])
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


@dataclass(frozen=True)
class _RungeKuttaPair:
    """An embedded explicit Runge-Kutta pair and how it is sampled.

    ``A`` holds the stage coefficients, one row per stage; its last row,
    row ``stages = len(A) - 1``, is ``B``, whose stage is the slope at the
    new point. ``error_order`` is the order of the error estimator.
    ``error_norm(K[:stages + 1].T, h, scale)`` decides acceptance. ``dense``
    is the interpolant's coefficient matrix P: at normalized time x in a step
    the state is y_old + h K.T P (x, x^2, ...). A pair without one
    (``dense=None``) lands its steps on the grid times.
    """

    name: str
    A: np.ndarray
    error_order: int
    error_norm: Callable[[np.ndarray, float, list[float]], float]
    dense: np.ndarray | None


_PAIRS = {
    "RK23": _RungeKuttaPair("RK23", _RK23_A, 2, _rk23_error_norm, _RK23_P),
    "DOP853": _RungeKuttaPair("DOP853", _dop853.A, 7, _dop853_error_norm, None),
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
    f1 = np.asarray(rhs((y0 + h0 * f0).tolist()))
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (error_order + 1))
    return min(100 * h0, h1, interval)


def _sample_steps(P: np.ndarray, K: np.ndarray, bounds: np.ndarray, steps: np.ndarray,
                  grid: np.ndarray, out: np.ndarray) -> None:
    """Evaluate recorded steps' interpolants on their grid times, into ``out``.

    Step j has stages ``K[j]``, samples grid[first:stop] with (first, stop)
    = ``bounds[j]``, and ``steps[j]`` = (t_old, h, *y_old). Each
    ``np.matmul`` slice is one step's ``K.T.dot(P)`` or ``Q.dot(p)``, and
    the steps are grouped by sample count; ``_runge_kutta`` says why.
    """
    Q = np.matmul(K.transpose(0, 2, 1), P)
    groups: dict[int, list[int]] = {}
    for j, m in enumerate((bounds[:, 1] - bounds[:, 0]).tolist()):
        groups.setdefault(m, []).append(j)
    for m, group in groups.items():
        rows = bounds[group, :1] + np.arange(m)
        t_old, h, y_old = steps[group, :1], steps[group, 1:2], steps[group, 2:]
        x = (grid[rows] - t_old) / h
        # the powers x, x^2, ... associated as scipy's cumprod forms them
        p = np.empty((len(group), P.shape[1], m))
        p[:, 0] = x
        for i in range(1, P.shape[1]):
            np.multiply(p[:, i - 1], x, out=p[:, i])
        y = np.matmul(Q[group], p)
        y *= h[:, :, None]
        y += y_old[:, :, None]
        out[rows] = y.transpose(0, 2, 1)


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
    ``stages`` per attempted step. The state, the stage arguments, the error
    scale and the slopes are lists of Python floats, and ``rhs`` is called
    with a list. Only the reductions stay numpy arrays, formed as scipy
    forms them: the stage products ``K[:s].T . a``, ``K[:stages].T . B``,
    the error products, the norms' dot products and RK23's interpolant on
    steps that sample. OpenBLAS evaluates those as fused multiply-add
    chains, which Python arithmetic does not round alike; every other
    operation is elementwise and rounds the same on floats as on arrays.
    Both pairs share this loop, its step controller and its initial-step
    rule; they differ in the tableau, the error norm and the sampling. Grid
    times are read from the array one at a time: ``next_time``, the first after t.

    RK23 samples in batches. Each accepted step that holds grid times has
    its stages, sample bounds, start time, size and start state copied into
    preallocated arrays of ``_DENSE_CHUNK`` rows; when they are full, and
    after the last step, ``_sample_steps`` evaluates all their interpolants
    at once. It stacks scipy's per-step products ``K.T.dot(P)`` and
    ``Q.dot(p)`` into ``np.matmul`` calls, which make one BLAS call per
    step with the same shapes, so every sample keeps its bits. The steps of
    a chunk are grouped by their number of samples m: one step's m samples
    are one product with m columns, which rounds differently from m
    products of one column. The chunk is bounded so that the records stay
    a few kilobytes, whatever the length of the run, and the batch
    temporaries stay small.
    """
    t, t_end = grid.item(0), grid.item(-1)
    rtol = max(rtol, _MIN_RTOL)
    out = np.empty((grid.size, y0.size))
    y = y0.tolist()
    f = rhs(y)
    if not np.all(np.isfinite(f)):
        # A NaN here makes scipy's first step size NaN, and it never returns.
        raise IntegrationError(f"{pair.name}: the vector field is not finite at t = {t!r}")
    h_abs = _initial_step(rhs, y0, np.asarray(f), t_end - t, rtol, atol, pair.error_order)
    error_exponent = -1 / (pair.error_order + 1)
    A, P, stages = pair.A, pair.dense, len(pair.A) - 1
    B = A[stages, :stages]
    # K holds the stages in rows, then the new slope; scipy combines them
    # through these views.
    K = np.empty((stages + 1, y0.size))
    step = [(s, K[:s].T, A[s, :s]) for s in range(1, stages)]
    BT, KT = K[:stages].T, K[:stages + 1].T
    recorded = 0
    if P is not None:
        # the sampling steps waiting for their interpolants: stages, sample
        # bounds, and (t_old, h, *y_old)
        chunk = _DENSE_CHUNK
        chunk_K = np.empty((chunk, stages + 1, y0.size))
        chunk_bounds = np.empty((chunk, 2), dtype=np.intp)
        chunk_steps = np.empty((chunk, 2 + y0.size))
    # A landing pair samples the start itself; RK23's interpolant samples it.
    sampled = 0 if P is not None else int(np.searchsorted(grid, t, "right"))
    out[:sampled] = y
    times = map(float, grid[sampled:])  # stop counts the grid times <= t
    stop, next_time = sampled, next(times, math.inf)
    while t < t_end:
        bound = t_end if P is not None else next_time
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
                K[s] = rhs([yi + d * h for yi, d in zip(y, KsT.dot(a).tolist())])
            y_new = [yi + h * d for yi, d in zip(y, BT.dot(B).tolist())]
            f_new = rhs(y_new)
            K[stages] = f_new
            # y_new first: max keeps its first argument against a NaN, as
            # np.maximum returns the NaN (an accepted y is never NaN)
            scale = [atol + max(abs(new), abs(old)) * rtol for old, new in zip(y, y_new)]
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
        while next_time <= t:
            stop, next_time = stop + 1, next(times, math.inf)
        if stop > sampled:
            if P is None:
                out[sampled:stop] = y
            else:
                chunk_K[recorded] = K
                chunk_bounds[recorded] = sampled, stop
                chunk_steps[recorded] = (t_old, h, *y_old)
                recorded += 1
                if recorded == chunk:
                    _sample_steps(P, chunk_K, chunk_bounds, chunk_steps, grid, out)
                    recorded = 0
            sampled = stop
    if recorded:
        _sample_steps(P, chunk_K[:recorded], chunk_bounds[:recorded],
                      chunk_steps[:recorded], grid, out)
    return out


def _state_size(system: SystemDef, config: IntegrationConfig):
    """The problem with an initial state not of the system's dimension, if any."""
    size = config.initial_state.size
    return size != system.dim and (f"initial_state must have the {system.dim} components "
                                   f"of {system.name}, got {size}")


def integrate(system: SystemDef, config: IntegrationConfig) -> TimeSeries:
    """Deterministic trajectory sampled on the uniform dt grid.

    Adaptive stepping with ``config.method`` controls the local error at
    (rtol, atol). RK23 evaluates its dense output at the grid times; DOP853
    cuts a step short at each grid time, so its steps depend on the grid.
    Raises IntegrationError if the field is not finite at the start or the
    step size collapses, and ConfigError for an initial state that is not of
    the system's dimension or for a noisy config.
    """
    reject(_state_size(system, config),
           config.noise_rms > 0 and (f"integrate ignores noise_rms = {config.noise_rms}; "
                                     "use integrate_noisy for a forced run"))
    grid = config.grid()
    values = _runge_kutta(_PAIRS[config.method], system.rhs, grid, config.initial_state,
                          config.rtol, config.atol)
    values.setflags(write=False)  # config has checked dt and t0; values is (len(grid), dim)
    return trusted(TimeSeries, dt=config.dt, values=values, t0=float(grid[0]))


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

    Returns one series per path, all started from ``config.initial_state``;
    their values are read-only consecutive blocks of one array, not copies.
    Path i draws its forcing, substep by substep, from a generator seeded by
    child i of ``SeedSequence(config.seed)``, so it does not depend on how
    many paths are run alongside it. The paths are stepped together as one
    (dim, paths) state; the RHS acts elementwise on each column, so every
    path is bit-identical to a run of its own. The forcing is drawn one dt
    interval at a time, which keeps memory flat in the run length.

    Raises IntegrationError, naming the first path and sample time, as soon
    as a sample of any path is not finite, and ConfigError for an initial
    state that is not of the system's dimension.
    """
    reject(_state_size(system, config),
           config.seed is None and "integrate_noisy requires a seed for reproducibility",
           integer("paths", paths, 1))
    grid = config.grid()
    h = config.dt / config.substeps
    sigma = config.noise_rms / np.sqrt(h)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(paths)]
    draws = (config.substeps, system.dim)
    rhs = system.rhs
    state = np.repeat(config.initial_state[:, None], paths, axis=1)
    # one (n, dim) block per path, handed out as it is: no path is copied
    values = np.empty((paths, len(grid), system.dim))
    values[:, 0] = state.T
    # A diverging path overflows to inf/nan on its way out; that is reported
    # below as IntegrationError, so the arithmetic itself must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, len(grid)):
            forcing = np.stack([rng.normal(0.0, sigma, size=draws) for rng in rngs], axis=-1)
            for xi in forcing:
                # adding the forcing stacks the field's rows into a (dim, paths) array
                k1 = rhs(state) + xi
                k2 = rhs(state + h * k1) + xi
                state = state + 0.5 * h * (k1 + k2)
            values[:, m] = state.T
            diverged = np.flatnonzero(~np.isfinite(state).all(axis=0))
            if diverged.size:
                raise IntegrationError(
                    f"noisy path {diverged[0]} of {system.name} is not finite "
                    f"at t = {grid[m]:g}")
    values.setflags(write=False)
    return [trusted(TimeSeries, dt=config.dt, values=path, t0=float(grid[0]))
            for path in values]


def transient_config(system: SystemDef, transient_time: float, rtol: float, atol: float,
                     method: str) -> IntegrationConfig:
    """The run of ``on_attractor_state``, from ``system.start`` to ``transient_time``,
    sampled only at its end: RK23's dense output is evaluated once and DOP853
    steps freely until its last step."""
    reject(number("transient_time", transient_time, 0.0, open_low=True,
                  rule="a positive finite time"))
    return IntegrationConfig(dt=transient_time, t_span=(0.0, transient_time),
                             initial_state=np.array(system.start),
                             rtol=rtol, atol=atol, method=method)


def on_attractor_state(system: SystemDef, transient_time: float, rtol: float = 1e-8,
                       atol: float = 1e-10, method: str = "RK23") -> np.ndarray:
    """The state at time ``transient_time`` of ``transient_config``'s run: the
    start point is fixed, so the result is deterministic."""
    config = transient_config(system, transient_time, rtol, atol, method)
    return integrate(system, config).values[-1].copy()

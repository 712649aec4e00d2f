"""Ground-truth chaotic systems and their integrators.

Deterministic trajectories come from an adaptive explicit Runge-Kutta pair
sampled onto the uniform dt grid through its dense output: Bogacki-Shampine
3(2) ("RK23", the default) or Dormand-Prince 8(5,3) ("DOP853"). RK23 at a
loose tolerance gives the sampling jitter that the forecast tasks'
regularization is tuned to; at rtol 1e-8 DOP853 needs about a tenth of
RK23's RHS evaluations on the Lorenz system. Noise-driven trajectories use a
fixed-substep second-order scheme with a piecewise constant Gaussian
forcing, scaled so the integrated forcing has the requested RMS per unit
time; independent noise paths are stepped together as one ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .timeseries import TimeSeries


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails to reach the end time."""


METHODS = ("RK23", "DOP853")


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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("integration tolerances must be positive")
        if self.t_span[1] <= self.t_span[0]:
            raise ValueError(f"empty time span {self.t_span}")
        if self.noise_rms < 0:
            raise ValueError(f"noise_rms must be nonnegative, got {self.noise_rms}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "initial_state", np.asarray(self.initial_state, dtype=float))

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
    """Vector field of the three-variable Lorenz convection model."""
    x, y, z = state
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


def integrate(system: SystemDef, config: IntegrationConfig) -> TimeSeries:
    """Deterministic trajectory sampled on the uniform dt grid.

    Adaptive stepping with ``config.method`` controls the local error at
    (rtol, atol); the dense solution is evaluated exactly at the grid times.
    """
    grid = config.grid()
    rhs = system.rhs
    sol = solve_ivp(
        lambda t, y: rhs(y),
        (grid[0], grid[-1]),
        config.initial_state,
        method=config.method,
        t_eval=grid,
        rtol=config.rtol,
        atol=config.atol,
    )
    if not sol.success:
        raise IntegrationError(f"integration of {system.name} failed: {sol.message}")
    return TimeSeries(dt=config.dt, values=sol.y.T.copy(), t0=float(grid[0]))


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
    for m in range(1, len(grid)):
        forcing = np.stack([rng.normal(0.0, sigma, size=draws) for rng in rngs], axis=-1)
        for xi in forcing:
            k1 = rhs(state) + xi
            k2 = rhs(state + h * k1) + xi
            state = state + 0.5 * h * (k1 + k2)
        values[m] = state
    return [TimeSeries(dt=config.dt, values=values[:, :, i], t0=float(grid[0]))
            for i in range(paths)]


def on_attractor_state(system: SystemDef, transient: float = 20.0, dt: float = 0.01,
                       rtol: float = 1e-8, atol: float = 1e-10,
                       method: str = "RK23") -> np.ndarray:
    """A point on the attractor, reached by discarding a fixed transient.

    Starts from a canonical off-attractor point per system so the result is
    deterministic.
    """
    start = np.array(_SEED_STATE[system.name])
    config = IntegrationConfig(dt=dt, t_span=(0.0, transient), initial_state=start,
                               rtol=rtol, atol=atol, method=method)
    return integrate(system, config).values[-1].copy()

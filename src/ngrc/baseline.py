"""Minimal traditional reservoir computer and the complexity estimator.

Kept deliberately small: it exists to make the equivalence story concrete
(a random recurrent network whose linear-plus-squared state readout is
trained exactly like the delay-feature readout) and to estimate the
training-cost ratio between the two approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ._checks import integer, number, one_of, reject
from .timeseries import TimeSeries


class ReservoirError(RuntimeError):
    """Raised when a drawn adjacency cannot be scaled or a reservoir state overflows."""


@dataclass(frozen=True)
class ReservoirParams:
    """Metaparameters of the random recurrent network."""

    n_nodes: int
    gamma: float = 1.0
    spectral_radius: float = 0.9
    sigma_r: float = 0.05
    input_scale: float = 1.0
    bias: float = 0.0
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        reject(integer("n_nodes", self.n_nodes, 1),
               number("gamma", self.gamma, 0.0, 1.0),
               number("spectral_radius", self.spectral_radius, 0.0, open_low=True),
               number("sigma_r", self.sigma_r, 0.0, 1.0, open_low=True),
               number("input_scale", self.input_scale, 0.0, open_low=True),
               number("bias", self.bias),
               one_of("activation", self.activation, ("tanh", "linear")))
        object.__setattr__(self, "n_nodes", int(self.n_nodes))


@dataclass(frozen=True)
class Reservoir:
    """A built reservoir: fixed random matrices plus the update parameters."""

    adjacency: np.ndarray
    input_weights: np.ndarray
    bias: float
    gamma: float
    activation: str

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def build_reservoir(params: ReservoirParams, input_dim: int) -> Reservoir:
    """Draw the fixed random matrices for a reservoir of the given size.

    The adjacency matrix gets ceil(sigma_r * N^2) nonzero uniform [-1, 1]
    entries at seeded-random positions and is rescaled so its largest
    eigenvalue magnitude equals spectral_radius. Input weights are uniform
    in [-input_scale, input_scale].
    """
    rng = np.random.default_rng(params.seed)
    n = params.n_nodes
    n_links = ceil(params.sigma_r * n * n)
    positions = rng.choice(n * n, size=n_links, replace=False)
    adjacency = np.zeros(n * n)
    adjacency[positions] = rng.uniform(-1.0, 1.0, size=n_links)
    adjacency = adjacency.reshape(n, n)
    radius = np.abs(np.linalg.eigvals(adjacency)).max()
    if radius == 0.0:
        raise ReservoirError("drawn adjacency matrix has zero spectral radius; cannot rescale")
    adjacency *= params.spectral_radius / radius
    input_weights = rng.uniform(-params.input_scale, params.input_scale, size=(n, input_dim))
    return Reservoir(
        adjacency=adjacency,
        input_weights=input_weights,
        bias=params.bias,
        gamma=params.gamma,
        activation=params.activation,
    )


def reservoir_run(reservoir: Reservoir, series: TimeSeries) -> np.ndarray:
    """Drive the reservoir with the series, starting from the zero state.

    Column j of the returned (N x n_samples) matrix is the state after
    consuming sample j:  r <- (1 - gamma) r + gamma f(A r + W X + b).
    Raises ReservoirError, naming the first step, when a state is not finite.
    """
    if series.n_components != reservoir.input_weights.shape[1]:
        raise ValueError(
            f"series has {series.n_components} components, reservoir expects "
            f"{reservoir.input_weights.shape[1]}"
        )
    f = np.tanh if reservoir.activation == "tanh" else (lambda v: v)
    gamma = reservoir.gamma
    states = np.empty((reservoir.n_nodes, series.n_samples))
    r = np.zeros(reservoir.n_nodes)
    driven = series.values @ reservoir.input_weights.T + reservoir.bias
    # A state that grows without bound overflows to inf/nan on its way out;
    # that is reported below as ReservoirError, so the arithmetic must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(series.n_samples):
            r = (1.0 - gamma) * r + gamma * f(reservoir.adjacency @ r + driven[j])
            states[:, j] = r
    diverged = np.flatnonzero(~np.isfinite(states).all(axis=0))
    if diverged.size:
        raise ReservoirError(f"reservoir state is not finite at step {diverged[0]}")
    return states


def quadratic_readout_features(states: np.ndarray) -> np.ndarray:
    """Stack the states and their elementwise squares: (2N x n_samples)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return np.vstack([states, states**2])


@dataclass(frozen=True)
class CostParams:
    """Step counts and sizes entering the training-cost estimate."""

    m_warmup: int = 0
    m_train: int = 0
    n_total: int = 0
    n_nonlinear: int = 0
    n_nodes: int = 0
    sigma_r: float = 0.0

    def __post_init__(self):
        reject(*(number(name, getattr(self, name), 0.0) for name in
                 ("m_warmup", "m_train", "n_total", "n_nonlinear", "n_nodes", "sigma_r")))


def training_cost_rc(params: CostParams) -> float:
    """Dominant multiplications for a traditional reservoir: sparse state
    updates over warm-up plus training, then the ridge regression."""
    adjacency = params.sigma_r * (params.m_warmup + params.m_train) * params.n_nodes**2
    ridge = params.m_train * params.n_total**2
    return adjacency + ridge


def training_cost_ngrc(params: CostParams) -> float:
    """Dominant multiplications for the delay-feature model: the ridge
    regression plus forming the nonlinear features."""
    return params.m_train * params.n_total**2 + params.m_train * params.n_nonlinear


def estimate_cost(ng: CostParams, rc: CostParams) -> float:
    """Training-cost ratio traditional-RC / NG-RC (higher = NG-RC cheaper)."""
    ng_cost = training_cost_ngrc(ng)
    if ng_cost == 0:
        raise ValueError("NG-RC cost parameters give zero cost; ratio undefined")
    return training_cost_rc(rc) / ng_cost


# Published speedup figures for the reference reservoir implementations the
# cost model is compared against, laid out as the rows the complexity task
# reports; the task fills in each row's computed_speedup.
COMPLEXITY_CASES = [
    {
        "system": "lorenz63",
        "ngrc": {"m_warmup": 2, "m_train": 400, "n_total": 28, "n_nonlinear": 21},
        "rows": [
            {"reference": "low-connectivity RC", "m_warmup": 1000, "m_train": 1000,
             "n_total": 100, "n_nodes": 100, "sigma_r": [0.01, 0.05],
             "computed_speedup": None, "quoted_speedup": "33-163"},
            {"reference": "intermediate RC", "m_warmup": 0, "m_train": 5000,
             "n_total": 300, "n_nodes": 300, "sigma_r": [0.02],
             "computed_speedup": None, "quoted_speedup": "1.5e3"},
            {"reference": "high-accuracy RC", "m_warmup": 100000, "m_train": 60000,
             "n_total": 4000, "n_nodes": 2000, "sigma_r": [0.02],
             "computed_speedup": None, "quoted_speedup": "3.2e6"},
        ],
    },
    {
        "system": "double_scroll",
        "ngrc": {"m_warmup": 2, "m_train": 400, "n_total": 62, "n_nonlinear": 56},
        "rows": [
            {"reference": "low-connectivity RC", "m_warmup": 1000, "m_train": 1000,
             "n_total": 100, "n_nodes": 100, "sigma_r": [0.01, 0.05],
             "computed_speedup": None, "quoted_speedup": "8-41"},
        ],
    },
]

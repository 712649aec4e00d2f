"""The training-cost model that compares NG-RC with a traditional reservoir.

It counts the dominant multiplications of training each approach; the
complexity task sets the ratio beside the published speedups of reference
reservoirs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import number, reject


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


import json
from pathlib import Path

import pytest

from ngrc import (
    CostParams,
    estimate_cost,
    feature_length,
    training_cost_ngrc,
    training_cost_rc,
)
from ngrc.cli import TASKS, resolve_config

TRACKED_TABLES = json.loads((Path(__file__).resolve().parent.parent / "runs" / "complexity"
                             / "summary.json").read_text())["tables"]


def test_training_cost_hand_cases():
    rc = CostParams(m_warmup=10, m_train=100, n_total=50, n_nodes=20, sigma_r=0.1)
    # 0.1 * 110 * 400 + 100 * 2500
    assert training_cost_rc(rc) == pytest.approx(0.1 * 110 * 400 + 100 * 2500)
    ng = CostParams(m_train=100, n_total=28, n_nonlinear=21)
    assert training_cost_ngrc(ng) == pytest.approx(100 * 28**2 + 100 * 21)


def test_estimate_cost_is_one_for_identical_dense_free_setups():
    shared = dict(m_warmup=0, m_train=200, n_total=30)
    ng = CostParams(n_nonlinear=0, **shared)
    rc = CostParams(n_nodes=30, sigma_r=0.0, **shared)
    assert estimate_cost(ng, rc) == 1.0


def test_cost_linear_in_training_length():
    ng = CostParams(m_train=100, n_total=28, n_nonlinear=21)
    ng2 = CostParams(m_train=200, n_total=28, n_nonlinear=21)
    assert training_cost_ngrc(ng2) == pytest.approx(2 * training_cost_ngrc(ng))
    rc = CostParams(m_warmup=0, m_train=100, n_total=50, n_nodes=20, sigma_r=0.1)
    rc2 = CostParams(m_warmup=0, m_train=200, n_total=50, n_nodes=20, sigma_r=0.1)
    assert training_cost_rc(rc2) == pytest.approx(2 * training_cost_rc(rc))


def test_estimate_cost_rejects_zero_ngrc_cost():
    with pytest.raises(ValueError):
        estimate_cost(CostParams(), CostParams(n_nodes=10, sigma_r=0.1, m_train=5))


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(m_train=-1)
    with pytest.raises(ValueError):
        CostParams(sigma_r=-0.5)
    # NaN fails every comparison, so a bare `< 0` check would let it through
    for name in ("m_warmup", "m_train", "n_total", "n_nonlinear", "n_nodes", "sigma_r"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
                CostParams(**{name: value})


@pytest.mark.parametrize("case, task", zip(TRACKED_TABLES,
                                           ["forecast-lorenz", "forecast-doublescroll"]))
def test_complexity_ngrc_sizes_match_the_forecast_tasks(case, task):
    # the tracked cost table's NG-RC column is the forecast task's default model,
    # counted here from the task's resolved config
    config = resolve_config({"task": task})
    system = TASKS[task].system()
    spec = config.feature_spec(system.dim)
    n_total = feature_length(spec)
    assert case["system"] == system.name
    assert case["ngrc"] == {
        "m_warmup": spec.warmup_index + 1,
        "m_train": config["train_points"],
        "n_total": n_total,
        "n_nonlinear": n_total - spec.n_linear - spec.include_constant,
    }

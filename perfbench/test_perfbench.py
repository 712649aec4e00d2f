"""Self-tests of the benchmark: gates, span arithmetic, patching, traced identity.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ngrc.cli  # noqa: E402
from spans import _TARGETS, EXACT_COUNTS, Span, Tracer, _resolve, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    FitSweepWorkload,
    _sha_files,
    gate_forecast_lorenz,
    gate_noise_lorenz,
    gate_sweep,
)


def forecast_summary(**changes):
    summary = {
        "valid_time_median": 5.02,
        "uss": [{"scaled_distance": 3.6e-3}, {"scaled_distance": 1.4e-3},
                {"scaled_distance": 1.4e-3}],
        "return_map": {"relative_deviation": 1.2e-3},
        "test_nrmse": 0.01,
    }
    summary.update(changes)
    return summary


@pytest.fixture
def forecast_dir(tmp_path):
    np.savetxt(tmp_path / "forecast.csv", np.ones((4, 4)), delimiter=",")
    return tmp_path


def test_forecast_gate_accepts_the_published_summary(forecast_dir):
    problems, readouts = gate_forecast_lorenz(forecast_summary(), forecast_dir)
    assert problems == []
    assert readouts["verify.valid_time_median_ly"] == 5.02
    assert readouts["verify.uss_max_scaled_dist"] == 3.6e-3


@pytest.mark.parametrize("changes", [
    {"valid_time_median": 2.9},
    {"uss": [{"scaled_distance": 3.6e-3}, {"scaled_distance": None},
             {"scaled_distance": 1.4e-3}]},
    {"uss": [{"scaled_distance": 2.1e-2}]},
    {"return_map": {"relative_deviation": 0.02}},
    {"test_nrmse": float("nan")},
])
def test_forecast_gate_rejects_doctored_summaries(forecast_dir, changes):
    problems, _ = gate_forecast_lorenz(forecast_summary(**changes), forecast_dir)
    assert len(problems) == 1


def test_forecast_gate_rejects_a_non_finite_forecast(forecast_dir):
    values = np.ones((4, 4))
    values[2, 1] = np.inf
    np.savetxt(forecast_dir / "forecast.csv", values, delimiter=",")
    problems, _ = gate_forecast_lorenz(forecast_summary(), forecast_dir)
    assert problems == ["forecast is not finite"]


@pytest.mark.parametrize("median, ok", [(1.54e-2, True), (6.6e-2, True), (6.8e-2, False),
                                        (2.6e-3, False), (float("nan"), False)])
def test_noise_gate_is_within_five_times_the_published_value(median, ok):
    problems, _ = gate_noise_lorenz({"scaled_rmse_median": median}, Path("."))
    assert (problems == []) is ok


def test_sweep_gate_checks_the_median_pass():
    sizes = FitSweepWorkload.SIZES
    saturating = [3e-3, 2e-3, 1e-3, 7e-4, 6.5e-4, 6.2e-4, 6.1e-4, 6e-4, 6e-4, 6e-4]
    good = np.tile(saturating, (5, 4, 1))                # (passes, offsets, sizes)
    problems, readouts = gate_sweep(sizes, good)
    assert problems == []
    assert readouts["verify.sweep_passes_outside_claim"] == 0.0

    one_bad_pass = good.copy()
    one_bad_pass[2, 0, sizes.index(400)] = 1.0           # an unstable window
    problems, readouts = gate_sweep(sizes, one_bad_pass)
    assert problems == []
    assert readouts["verify.sweep_passes_outside_claim"] == pytest.approx(0.2)

    flat = np.full((5, 4, len(sizes)), 6e-4)             # no gain from more data
    assert len(gate_sweep(sizes, flat)[0]) == 1
    unsaturated = good.copy()
    unsaturated[:, :, sizes.index(400)] = 2e-3
    assert len(gate_sweep(sizes, unsaturated)[0]) == 1
    broken = good.copy()
    broken[0, 0, 3] = np.nan
    assert any("not finite" in p for p in gate_sweep(sizes, broken)[0])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("c", 5.5, 7.0, 0),       # overlaps b: the overlap counts once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2, 2.0, 1.0, 1.0, 1.5])


def test_layer_metrics_from_a_synthetic_tree():
    spans = [
        Span("model.forecast", 0.0, 0.004, None),
        Span("features.total_features", 0.001, 0.002, 0),
        Span("features.total_features", 0.002, 0.003, 0),
        Span("systems.integrate", 1.0, 1.5, None),
    ]
    counts = {"model.forecast.steps": 2, "systems.integrate.rhs_evals": 1000,
              "systems.integrate.time_units": 4.0}
    metrics = layer_metrics(spans, counts)
    assert metrics["model.forecast.self_s"] == pytest.approx(0.002)
    assert metrics["model.forecast.us_per_step"] == pytest.approx(2000.0)
    assert metrics["features.total_features.calls"] == 2
    assert metrics["features.total_features.self_s"] == pytest.approx(0.002)
    assert metrics["systems.integrate.us_per_rhs_eval"] == pytest.approx(500.0)
    assert metrics["systems.integrate.rhs_evals_per_time_unit"] == pytest.approx(250.0)
    assert metrics["regression.ridge_fit.calls"] == 0


def _originals():
    import ngrc.systems

    found = {(path, attr): getattr(_resolve(path), attr) for path, attr, *_ in _TARGETS}
    found[("ngrc.systems", "lorenz63_rhs")] = ngrc.systems.lorenz63_rhs
    return found


def test_tracer_restores_every_original_function():
    before = _originals()
    with Tracer():
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    assert all(value is before[key] for key, value in _originals().items())

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(value is before[key] for key, value in _originals().items())


SMALL_FORECAST = {
    "task": "forecast-lorenz", "train_points": 200, "uss_segments": 2,
    "return_map_window": 50.0, "test_horizon": 5.0,
}


def _run_small_forecast(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_FORECAST))
    out = tmp_path / name
    assert ngrc.cli.main(["run", str(config), "--out", str(out), "--quiet"]) == 0
    return _sha_files(out)[0]


def test_traced_cli_run_is_bit_identical_and_counts_repeat(tmp_path):
    untraced = _run_small_forecast(tmp_path, "untraced")
    counts = []
    for copy in range(2):
        with Tracer() as tracer:
            assert _run_small_forecast(tmp_path, f"traced{copy}") == untraced
        spans, raw = tracer.take()
        metrics = layer_metrics(spans, raw)
        assert metrics["model.forecast.steps"] > 0
        assert metrics["systems.integrate.rhs_evals"] > 0
        counts.append({key: metrics[key] for key in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_traced_fit_sweep_pass_is_bit_identical(tmp_path):
    workload = FitSweepWorkload(seed=3)
    workload.SAMPLES = 3000
    workload.prepare()
    untraced = workload.op(0)
    with Tracer() as tracer:
        traced = workload.op(0)
    metrics = layer_metrics(*tracer.take())
    assert traced.outputs_sha == untraced.outputs_sha
    assert traced.failed == untraced.failed == 0
    assert metrics["regression.ridge_fit.calls"] == untraced.attempted
    assert metrics["model.forecast.steps"] == untraced.attempted * workload.HORIZON

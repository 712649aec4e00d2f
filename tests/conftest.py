"""Shared fixtures: each canonical run, made once per session for the
byte-identity and acceptance tests, and segment 0 of the forecast tasks,
cut, fitted and rolled out by the runner's window routine from the same
config, system and ground truth as their canonical run.
"""

import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ngrc import (
    FeatureSpec,
    NgrcModel,
    ScalingVector,
    SystemDef,
    TimeSeries,
    integrate,
    lorenz63,
    on_attractor_state,
)
from ngrc import cli
from ngrc.systems import IntegrationConfig

settings.register_profile(
    "repo", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class CanonicalRun:
    out: Path  # the run's output directory
    summary: dict
    wall_s: float  # the whole `ngrc run`, validation and writing included


# Every canonical run made in this session, by task, in the order made.
_CANONICAL_RUNS: dict[str, CanonicalRun] = {}


@pytest.fixture(scope="session")
def canonical_run(tmp_path_factory):
    """``canonical_run(task)``: configs/<task>.json run once, with every warning an error."""
    def run(task: str) -> CanonicalRun:
        if task not in _CANONICAL_RUNS:
            out = tmp_path_factory.mktemp("canonical") / task
            argv = ["run", str(ROOT / "configs" / f"{task}.json"), "--out", str(out), "--quiet"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                start = time.perf_counter()
                code = cli.main(argv)
                wall_s = time.perf_counter() - start
            assert code == 0, f"ngrc {' '.join(argv)} exited {code}"
            summary = json.loads((out / "summary.json").read_text())
            _CANONICAL_RUNS[task] = CanonicalRun(out, summary, wall_s)
        return _CANONICAL_RUNS[task]
    return run


def pytest_terminal_summary(terminalreporter):
    if _CANONICAL_RUNS:
        terminalreporter.section("canonical runs")
        for task, run in _CANONICAL_RUNS.items():
            terminalreporter.write_line(f"{task}: {run.wall_s:.2f} s")
        total = sum(run.wall_s for run in _CANONICAL_RUNS.values())
        terminalreporter.write_line(f"{len(_CANONICAL_RUNS)} runs: {total:.2f} s")


@dataclass
class ForecastTask:
    system: SystemDef
    spec: FeatureSpec
    alpha: float
    mother: TimeSeries  # the task's ground truth
    scaling: ScalingVector
    train: TimeSeries  # segment 0's training window
    model: NgrcModel  # segment 0's model, the canonical one
    predicted: TimeSeries  # its whole rollout, the return map's window included
    n_test: int


def _forecast_task(task: str) -> ForecastTask:
    config = cli.resolve_config({"task": task})
    system = cli.TASKS[task].system()
    mother = cli._ground_truth(config, system)
    n_test, _, n_forecast = cli._forecast_steps(config, system)
    spec = config.feature_spec(system.dim)
    train, _, model, predicted = cli._forecast_window(config, spec, mother, 0,
                                                      config["train_points"], n_forecast)
    return ForecastTask(
        system=system, spec=spec, alpha=config["alpha"], mother=mother,
        scaling=ScalingVector.from_series(mother), train=train, model=model,
        predicted=predicted, n_test=n_test,
    )


@pytest.fixture(scope="session")
def lorenz_task() -> ForecastTask:
    return _forecast_task("forecast-lorenz")


@pytest.fixture(scope="session")
def ds_task() -> ForecastTask:
    return _forecast_task("forecast-doublescroll")


@pytest.fixture(scope="session")
def accurate_lorenz() -> TimeSeries:
    """A short, tightly integrated trajectory for metric-level tests."""
    system = lorenz63()
    x0 = on_attractor_state(system, 25.0)
    return integrate(system, IntegrationConfig(
        dt=0.025, t_span=(0.0, 839 * 0.025), initial_state=x0))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20210901)

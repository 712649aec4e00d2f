"""The benchmark's three workloads and their correctness gates.

Every workload runs in a closed loop with one client: the next operation
starts only when the previous one has ended. ``op(i)`` is deterministic in
``i`` and the workload seed, so a traced and an untraced call of the same
``i`` must give bit-identical outputs.

- forecast-lorenz: ``ngrc run configs/forecast-lorenz.json`` through
  ``ngrc.cli.main``; one operation is one task run. The task ignores the
  seed.
- noise-lorenz: ``ngrc run configs/noise-lorenz.json --seed <seed>``; one
  operation is one task run.
- fit-sweep: library-level training sweep on one seeded Lorenz trajectory
  generated during set-up; one operation (for ``wall_s``) is one pass over
  the sweep-trainsize grid at 20 fresh window offsets, and each of its 200
  cells (train -> 6-step forecast -> NRMSE) counts as one attempted
  operation for ``failed_frac``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# README acceptance bounds.
MIN_VALID_TIME_LY = 3.0
MAX_USS_DISTANCE = 2e-2
MAX_RETURN_MAP_REL_DEV = 0.02
PUBLISHED_NOISE_RMSE = 1.34e-2
NOISE_RMSE_FACTOR = 5.0
SWEEP_400_OVER_1000_FACTOR = 1.5
SWEEP_100_OVER_1000_MIN = 2.0


@dataclass
class OpResult:
    """What one timed operation produced."""

    wall_s: float
    attempted: int
    failed: int
    outputs_sha: str       # every output byte: detects any change at all
    results_sha: str       # sorted headline values: shows seeds with equal results
    readouts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    exit_code: int | str | None = None  # CLI workloads only
    output_bytes: int = 0
    cell_us: list = field(default_factory=list)


def _sha_values(values) -> str:
    return hashlib.sha256(
        json.dumps(sorted(float(v) for v in values)).encode()).hexdigest()


def _sha_files(directory: Path, skip=("resolved-config.json",)) -> tuple[str, int]:
    digest, total = hashlib.sha256(), 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.name not in skip:  # it names the output directory
            digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), total


def gate_forecast_lorenz(summary: dict, out: Path) -> tuple[list[str], dict]:
    problems = []
    median = summary["valid_time_median"]
    if not median >= MIN_VALID_TIME_LY:
        problems.append(f"median valid time {median} < {MIN_VALID_TIME_LY} Ly")
    distances = [entry["scaled_distance"] for entry in summary["uss"]]
    if not all(d is not None and d < MAX_USS_DISTANCE for d in distances):
        problems.append(f"USS distances {distances} not all < {MAX_USS_DISTANCE}")
    rel_dev = summary["return_map"]["relative_deviation"]
    if not rel_dev < MAX_RETURN_MAP_REL_DEV:
        problems.append(f"return-map deviation {rel_dev} >= {MAX_RETURN_MAP_REL_DEV}")
    predicted = np.loadtxt(out / "forecast.csv", delimiter=",", ndmin=2)
    if not (np.all(np.isfinite(predicted)) and np.isfinite(summary["test_nrmse"])):
        problems.append("forecast is not finite")
    readouts = {
        "verify.valid_time_median_ly": median,
        "verify.uss_max_scaled_dist": max((d for d in distances if d is not None),
                                          default=float("inf")),
        "verify.return_map_rel_dev": rel_dev,
    }
    return problems, readouts


def gate_noise_lorenz(summary: dict, out: Path) -> tuple[list[str], dict]:
    median = summary["scaled_rmse_median"]
    ratio = median / PUBLISHED_NOISE_RMSE
    problems = []
    if not (np.isfinite(ratio) and max(ratio, 1.0 / ratio) <= NOISE_RMSE_FACTOR):
        problems.append(f"median scaled RMSE {median} not within {NOISE_RMSE_FACTOR}x "
                        f"of {PUBLISHED_NOISE_RMSE}")
    return problems, {"verify.noise_scaled_rmse_median": median}


def gate_sweep(sizes, errors: np.ndarray) -> tuple[list[str], dict]:
    """README saturation claims, applied to each pass and required of the median pass.

    ``errors`` has shape (passes, offsets, sizes). A pass has the shape of one
    sweep-trainsize run (20 windows per size), so the claims are checked per
    pass; pooled over thousands of random windows, the means are dominated by
    the rare window whose model is unstable (6-step NRMSE up to ~1e3).
    """
    problems = []
    if not np.all(np.isfinite(errors)):
        problems.append(f"{int(np.sum(~np.isfinite(errors)))} sweep cells are not finite")
    means = errors.mean(axis=1)
    column = {size: means[:, j] for j, size in enumerate(sizes)}
    ratio_400 = column[400] / column[1000]
    ratio_100 = column[100] / column[1000]
    median_400 = float(np.median(ratio_400))
    median_100 = float(np.median(ratio_100))
    if not max(median_400, 1.0 / median_400) <= SWEEP_400_OVER_1000_FACTOR:
        problems.append(f"median pass: mean NRMSE 400/1000 = {median_400} not within "
                        f"{SWEEP_400_OVER_1000_FACTOR}x")
    if not median_100 > SWEEP_100_OVER_1000_MIN:
        problems.append(f"median pass: mean NRMSE 100/1000 = {median_100} not above "
                        f"{SWEEP_100_OVER_1000_MIN}")
    outside = np.maximum(ratio_400, 1.0 / ratio_400) > SWEEP_400_OVER_1000_FACTOR
    return problems, {"verify.sweep_nrmse_400_over_1000": median_400,
                      "verify.sweep_passes_outside_claim": float(np.mean(outside))}


class CliWorkload:
    """One ``ngrc run`` of a canonical config per operation."""

    REPEATS_INPUT = True

    def __init__(self, root: Path, workdir: Path, seed: int, config: str,
                 gate, result_key: str, pass_seed: bool):
        self.config = root / "configs" / config
        if not self.config.is_file():
            raise FileNotFoundError(f"missing config {self.config}")
        self.out = workdir / "out"
        self.gate = gate
        self.result_key = result_key
        self.extra = ["--seed", str(seed)] if pass_seed else []

    def prepare(self) -> None:
        pass

    def op(self, i: int) -> OpResult:
        import ngrc.cli

        argv = ["run", str(self.config), "--out", str(self.out), "--quiet", *self.extra]
        start = perf_counter()
        try:
            code = ngrc.cli.main(argv)
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            code = "exception"
        wall = perf_counter() - start
        result = OpResult(wall_s=wall, attempted=1, failed=0, outputs_sha="",
                          results_sha="", exit_code=code)
        try:
            if code != 0:
                result.problems.append(f"ngrc exited with code {code}")
            else:
                summary = json.loads((self.out / "summary.json").read_text())
                result.problems, result.readouts = self.gate(summary, self.out)
                result.results_sha = _sha_values(summary[self.result_key])
            if self.out.is_dir():
                result.outputs_sha, result.output_bytes = _sha_files(self.out)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        result.failed = int(bool(result.problems))
        return result

    def gate_run(self) -> tuple[list[str], dict]:
        return [], {}


class FitSweepWorkload:
    """Training sweep over the sweep-trainsize grid on one seeded trajectory."""

    REPEATS_INPUT = False  # every pass takes fresh window offsets

    SIZES = (100, 150, 200, 250, 300, 400, 500, 600, 800, 1000)
    OFFSETS_PER_PASS = 20
    HORIZON = 6            # 0.125 Lyapunov times at dt = 0.025
    ALPHA = 2.5e-6
    SAMPLES = 40000
    DISCARD = 1000         # let the seeded perturbation settle onto the attractor

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        import ngrc
        import ngrc.systems

        system = ngrc.systems.lorenz63()
        x0 = ngrc.systems.on_attractor_state(system, 25.0, rtol=1e-3, atol=1e-6)
        rng = np.random.default_rng(self.seed)
        x0 = x0 + rng.normal(0.0, 1.0, size=3)
        n = self.SAMPLES + self.DISCARD
        series = ngrc.systems.integrate(system, ngrc.IntegrationConfig(
            dt=0.025, t_span=(0.0, 0.025 * (n - 1)), initial_state=x0,
            rtol=1e-3, atol=1e-6))
        self.data = series.segment(self.DISCARD, n)
        self.scaling = ngrc.ScalingVector.from_series(self.data)
        self.spec = ngrc.FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=True)
        span = max(self.SIZES) + self.HORIZON
        self.offsets = rng.permutation(self.data.n_samples - span + 1)
        self.errors: dict[int, np.ndarray] = {}

    def op(self, i: int) -> OpResult:
        import ngrc.model
        import ngrc.verify

        count = self.OFFSETS_PER_PASS
        picks = self.offsets[np.arange(i * count, (i + 1) * count) % self.offsets.size]
        errors = np.empty((count, len(self.SIZES)))
        cell_us, problems = [], []
        start = perf_counter()
        for row, offset in enumerate(picks):
            for col, size in enumerate(self.SIZES):
                t0 = perf_counter()
                try:
                    train = self.data.segment(offset, offset + size)
                    model = ngrc.model.train_forecaster(train, self.spec, self.ALPHA)
                    predicted = ngrc.model.forecast(model, train, self.HORIZON)
                    truth = self.data.segment(offset + size, offset + size + self.HORIZON)
                    errors[row, col] = ngrc.verify.nrmse(predicted, truth, self.scaling)
                except Exception as exc:  # a failed cell is counted, the pass goes on
                    problems.append(f"cell ({size}, {offset}): {exc!r}")
                    errors[row, col] = np.nan
                cell_us.append((perf_counter() - t0) * 1e6)
        wall = perf_counter() - start
        self.errors[i] = errors
        failed = int(np.sum(~np.isfinite(errors)))
        return OpResult(
            wall_s=wall, attempted=errors.size, failed=failed,
            outputs_sha=hashlib.sha256(errors.tobytes()).hexdigest(),
            results_sha=_sha_values(errors.ravel()),
            problems=problems, cell_us=cell_us)

    def gate_run(self) -> tuple[list[str], dict]:
        errors = np.stack([self.errors[i] for i in sorted(self.errors)])
        return gate_sweep(self.SIZES, errors)


def make_workload(name: str, root: Path, workdir: Path, seed: int):
    if name == "forecast-lorenz":
        return CliWorkload(root, workdir, seed, "forecast-lorenz.json",
                           gate_forecast_lorenz, "valid_times", pass_seed=False)
    if name == "noise-lorenz":
        return CliWorkload(root, workdir, seed, "noise-lorenz.json",
                           gate_noise_lorenz, "scaled_rmse_values", pass_seed=True)
    if name == "fit-sweep":
        return FitSweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


"""Reproducible experiment runner.

Experiments are described by flat JSON config files (one document per
experiment, keys mirroring the library's parameter names). Each run writes
a structured summary, plot-ready CSVs, and the exact resolved config next
to them, so any result can be reproduced bit-for-bit from its output
directory.

Subcommands: ``run <config>``, ``validate <config>``, ``report <dir>``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baseline, verify
from ._checks import ConfigError
from .features import FeatureSpec, feature_names
from .model import (
    NgrcModel,
    forecast,
    infer,
    save_model,
    train_forecaster,
    train_inferrer,
)
from .regression import ReadoutMatrix, SingularSystemError, TrainingBlock, ridge_fit
from .systems import (
    IntegrationConfig,
    IntegrationError,
    SystemDef,
    double_scroll,
    integrate,
    integrate_noisy,
    lorenz63,
    on_attractor_state,
    transient_config,
)
from .timeseries import TimeSeries
from .verify import ScalingVector


class NumericalFailure(RuntimeError):
    """A numerical stage of an experiment failed."""


# Training-data integration accuracy is a load-bearing benchmark parameter:
# the sampling error of a default-tolerance adaptive run acts as jitter that
# the published regularization level is tuned to. Forecast-type tasks
# therefore generate data at these tolerances; tightening them destabilizes
# the closed loop at the same alpha.
_INTEGRATION_KEYS = {
    "dt": 0.025,
    "transient_time": 25.0,
    "rtol": 1e-3,
    "atol": 1e-6,
}

_FEATURE_KEYS = {
    "k": 2,
    "s": 1,
    "degrees": [2],
    "include_constant": True,
    "constant_value": 1.0,
}

_RESERVOIR_KEYS = {
    "n_nodes": 100,
    "gamma": 1.0,
    "spectral_radius": 0.9,
    "sigma_r": 0.05,
    "input_scale": 0.1,
    "bias": 0.0,
    "activation": "linear",
}

_FORECAST_KEYS = {
    **_INTEGRATION_KEYS,
    **_FEATURE_KEYS,
    "train_points": 400,
    "alpha": 2.5e-6,
    "test_horizon": 10.0,
    "nrmse_horizon": 1.0,
    "threshold": 0.5,
    "uss_segments": 10,
    "return_map_window": 1000.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment description."""

    task: str
    seed: int
    out_dir: str
    settings: dict

    def __getitem__(self, key):
        return self.settings[key]

    def feature_spec(self, d: int) -> FeatureSpec:
        return FeatureSpec(d=d, **{key: self[key] for key in _FEATURE_KEYS})

    def to_document(self) -> dict:
        """Flat key/value map that reproduces this run when fed back in."""
        doc = {"task": self.task, "seed": self.seed}
        doc.update({key: self.settings[key] for key in sorted(self.settings)})
        return doc


_TYPE_NAMES = {bool: "true/false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list of integers"}


def _has_type(value, default) -> bool:
    """Whether ``value`` has the JSON type of ``default``: any finite number for a
    float, and a list of entries typed as the default's first for a list."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type(v, default[0]) for v in value)
    return isinstance(value, type(default))


_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_ANY_VALUE = (lambda v: True, None)

# One (holds, message) rule per CLI-only key that has an invariant beyond its
# type; the library objects built in resolve_config check the other keys.
_RULES = {
    **dict.fromkeys(("seed", "test_horizon", "nrmse_horizon", "rmse_horizon", "threshold",
                     "return_map_window", "warmup_points", "target"), _NONNEGATIVE),
    **dict.fromkeys(("train_points", "test_points", "repeats", "segments", "uss_segments"),
                    _AT_LEAST_ONE),
    # IntegrationConfig checks dt > 0; the horizon and window arithmetic here
    # also needs finitely many samples per time unit, which a subnormal lacks
    "dt": (lambda v: v <= 0 or 1 / v < math.inf, "must be positive with a finite reciprocal"),
    "sizes": (lambda v: v and min(v) >= 10 and len(set(v)) == len(v),
              "expected a non-empty list of distinct integers >= 10"),
    "observed": (lambda v: v and min(v) >= 0 and len(set(v)) == len(v),
                 "expected a non-empty list of distinct component indices"),
}


def _library_errors(config: ExperimentConfig, system: SystemDef, d: int) -> list[str]:
    """The messages of the library objects that the task's runner builds, built as it
    builds them but with the system's start point and two samples for its data.
    ``resolve_config`` builds the ground truth's span after the cross-key rules."""
    builders = {
        "degrees": lambda: config.feature_spec(d),
        "alpha": lambda: ReadoutMatrix(np.zeros((1, 1)), config["alpha"]),
        "transient_time": lambda: transient_config(system, config["transient_time"],
                                                   config["rtol"], config["atol"], "RK23"),
        "dt": lambda: _integration_config(config, system.start, 2,
                                          noisy="noise_rms" in config.settings),
        "n_nodes": lambda: _reservoir_params(config),
    }
    errors = []
    for key, build in builders.items():
        try:
            if key in config.settings:
                build()
        except ValueError as exc:
            errors += [m for m in getattr(exc, "messages", [str(exc)]) if m not in errors]
    return errors


def _sample_count(time: float, dt: float) -> int | None:
    """The whole number of samples of ``dt`` nearest ``time``; None if it is infinite."""
    steps = time / dt
    return round(steps) if steps < math.inf else None


def resolve_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    """Fill defaults and check every field; reject unknown keys.

    Library parameters are checked by building the objects that the task's
    runner builds, so ``validate`` rejects what ``run`` would.
    """
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError([f"{source}: config must be a flat JSON object"])
    task = raw.get("task")
    if not isinstance(task, str) or task not in TASKS:  # a list would not hash
        problem = "missing" if task is None else f"unknown task {task!r}"
        raise ConfigError([f"task: {problem} (one of " + ", ".join(TASKS) + ")"])

    record = TASKS[task]
    defaults = {"seed": 0, "out_dir": f"runs/{task}", **record.defaults}
    settings = dict(defaults)
    for key, value in raw.items():
        if key == "task":
            continue
        if key not in defaults:
            errors.append(f"{key}: unknown key for task {task}")
            continue
        default = defaults[key]
        if not _has_type(value, default):
            errors.append(f"{key}: expected {_TYPE_NAMES[type(default)]}, got {value!r}")
            continue
        if isinstance(default, float):
            value = float(value)
        holds, message = _RULES.get(key, _ANY_VALUE)
        if not holds(value):
            errors.append(f"{key}: {message}, got {value!r}")
            continue
        settings[key] = value

    config = ExperimentConfig(task=task, seed=settings.pop("seed"),
                              out_dir=settings.pop("out_dir"), settings=settings)
    if record.system is not None:
        system = record.system()
        # the model sees the observed components only
        d = len(settings["observed"]) if "observed" in settings else system.dim
        errors += _library_errors(config, system, d)
    if errors:
        raise ConfigError(errors)
    if record.system is None:
        return config

    # Rules across keys, once every key is valid on its own.
    if "observed" in settings:
        observed, target = settings["observed"], settings["target"]
        if target in observed:
            errors.append("target: must not be among the observed components")
        for key, indices in (("observed", observed), ("target", [target])):
            if max(indices) >= system.dim:
                errors.append(f"{key}: component indices must be < {system.dim}, "
                              f"got {settings[key]}")
    if "degrees" in settings:
        spec = config.feature_spec(d)
        # Every window needs one full delay window per feature vector; a
        # forecaster also needs the sample after it as a target.
        need = spec.warmup_index + (1 if "observed" in settings else 2)
        for key in ("train_points", "test_points", "sizes"):
            if key in settings and np.min(settings[key]) < need:
                errors.append(f"{key}: need at least {need} samples for the "
                              f"delay window of k={spec.k}, s={spec.s}, "
                              f"got {settings[key]}")
    dt = settings["dt"]
    for key in ("test_horizon", "nrmse_horizon", "rmse_horizon"):  # in Lyapunov times
        if key in settings and _sample_count(settings[key] * system.lyapunov_time, dt) is None:
            errors.append(f"{key}: must span finitely many samples of dt={dt}, "
                          f"got {settings[key]!r}")
    # Two refined maxima need two 5-point stencils whose centres are 2 apart:
    # at least 7 samples.
    window = settings.get("return_map_window", 0.0)
    if window > 0 and not 7 <= (_sample_count(window, dt) or 0):
        errors.append(f"return_map_window: must be 0 (no return map) or span at least "
                      f"7 and finitely many samples of dt={dt}, got {window!r}")
    if errors:
        raise ConfigError(errors)
    # The ground truth as its runner builds it, once the counts it is made of
    # are known to be finite: dt must also be short enough for its span.
    n_truth = record.truth_samples(config, system)
    try:
        _integration_config(config, system.start, n_truth)
    except ValueError as exc:
        raise ConfigError([f"dt: {n_truth} samples of dt={dt} must span a finite time "
                           f"({exc})"]) from exc
    return config


def validate_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file, replace its keys by ``overrides`` and validate it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except ValueError as exc:  # undecodable bytes, bad syntax, an integer too long to read
        raise ConfigError([f"config: {path} is not valid JSON: {exc}"]) from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return resolve_config(raw, source=str(path))


# ---------------------------------------------------------------------------
# Experiment stages


def _integration_config(config: ExperimentConfig, x0, n_samples: int, t0: float = 0.0,
                        method: str = "RK23", noisy: bool = False) -> IntegrationConfig:
    """n_samples of dt from t0 on; a noisy run also takes the config's noise keys."""
    dt = config["dt"]
    noise = (dict(seed=config.seed, noise_rms=config["noise_rms"], substeps=config["substeps"])
             if noisy else {})
    return IntegrationConfig(dt=dt, t_span=(t0, t0 + (n_samples - 1) * dt), initial_state=x0,
                             rtol=config["rtol"], atol=config["atol"], method=method, **noise)


def _ground_truth(config: ExperimentConfig, system: SystemDef) -> TimeSeries:
    """The task's ground truth: a trajectory from the attractor after the transient."""
    task = TASKS[config.task]
    x0 = on_attractor_state(system, config["transient_time"], rtol=config["rtol"],
                            atol=config["atol"], method=task.method)
    return integrate(system, _integration_config(config, x0, task.truth_samples(config, system),
                                                 method=task.method))


def _forecast_truth_samples(config: ExperimentConfig, system: SystemDef) -> int:
    """Segment 0's training window and rollout, or every segment's window and test."""
    train_points = config["train_points"]
    n_test, _, n_forecast = _forecast_steps(config, system)
    return max(train_points + n_forecast, config["uss_segments"] * train_points + n_test) + 1


def _forecast_steps(config: ExperimentConfig, system: SystemDef) -> tuple[int, int, int]:
    """Samples of the test window, of the return map and of segment 0's rollout."""
    n_test = _horizon_steps(config, system, "test_horizon")
    n_return = _sample_count(config["return_map_window"], config["dt"])
    return n_test, n_return, max(n_test, n_return)


def _sweep_steps(config: ExperimentConfig, system: SystemDef) -> tuple[int, int]:
    """Samples of each forecast of the sweep, and from one window's start to the next."""
    n_horizon = _horizon_steps(config, system, "nrmse_horizon")
    return n_horizon, max(config["sizes"]) + n_horizon


def _reservoir_params(config: ExperimentConfig) -> baseline.ReservoirParams:
    return baseline.ReservoirParams(**{key: config[key] for key in _RESERVOIR_KEYS},
                                    seed=config.seed)


def _ranked_readout(model: NgrcModel, components: tuple[str, ...]) -> list[dict]:
    """All readout entries sorted by |weight| descending, with labels."""
    obs_names = [components[i] for i in model.input_indices]
    labels = feature_names(model.spec, obs_names)
    entries = [{"output": row, "feature": label, "weight": float(weight)}
               for row, weights in enumerate(model.readout.weights)
               for label, weight in zip(labels, weights)]
    entries.sort(key=lambda e: abs(e["weight"]), reverse=True)
    return entries


def _scored(model: NgrcModel, train: TimeSeries) -> NgrcModel:
    """The model with its training NRMSE first in its metadata, for the runs that
    report or save it; the trainers only fit."""
    return replace(model, metadata={"train_nrmse": verify.training_nrmse(model, train),
                                    **model.metadata})


def _horizon_steps(config: ExperimentConfig, system: SystemDef, key: str) -> int:
    return max(1, _sample_count(config[key] * system.lyapunov_time, config["dt"]))


def _run_forecast(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
                  scaling: ScalingVector, out: Path) -> dict:
    spec = config.feature_spec(system.dim)
    train_points = config["train_points"]
    n_test, n_return, n_forecast = _forecast_steps(config, system)
    n_nrmse = min(_horizon_steps(config, system, "nrmse_horizon"), n_test)
    uss_segments = config["uss_segments"]
    true_uss = system.steady_states()

    # Segment 0 is the canonical model and runs on for the return map; the
    # others are retrained on the following training-length windows of the
    # same trajectory.
    segments, valid_times, reports = [], [], []
    for seg in range(uss_segments):
        start, stop = seg * train_points, (seg + 1) * train_points
        with _stage("train"):
            train = truth.segment(start, stop)
            seg_model = train_forecaster(train, spec, config["alpha"])
        with _stage("forecast"):
            predicted = forecast(seg_model, train, n_forecast if seg == 0 else n_test)
        test = truth.segment(stop, stop + n_test)
        with _stage("verify"):
            valid_times.append(verify.valid_time(predicted.segment(0, n_test), test, scaling,
                                                 config["threshold"], system.lyapunov_time))
            reports.append(verify.uss_report(seg_model, true_uss, scaling))
        segments.append((train, seg_model, predicted, test))
    train, model, predicted, truth_test = segments[0]
    pred_test = predicted.segment(0, n_test)

    with _stage("verify"):
        model = _scored(model, train)
        test_nrmse = verify.nrmse(pred_test.segment(0, n_nrmse),
                                  truth_test.segment(0, n_nrmse), scaling)
        uss_doc = []
        for j, entry in enumerate(reports[0]):
            dists = [d for d in (r[j].scaled_distance for r in reports) if d is not None]
            uss_doc.append({
                "true_state": [float(v) for v in entry.true_state],
                "estimated_state": None if entry.estimated_state is None
                else [float(v) for v in entry.estimated_state],
                "scaled_distance": entry.scaled_distance,
                "dispersion_mean": float(np.mean(dists)) if dists else None,
                "dispersion_std": float(np.std(dists)) if dists else None,
                "segments_converged": len(dists),
            })

    summary = {
        "feature_dim": model.readout.feature_dim,
        "readout_shape": [model.readout.output_dim, model.readout.feature_dim],
        "alpha": config["alpha"],
        "train_points": train_points,
        "train_nrmse": model.metadata["train_nrmse"],
        "test_nrmse": test_nrmse,
        "nrmse_horizon_lyapunov": config["nrmse_horizon"],
        "valid_time_lyapunov": valid_times[0],
        "valid_time_median": float(np.median(valid_times)),
        "valid_times": valid_times,
        "threshold": config["threshold"],
        "uss": uss_doc,
        "scaling": [float(v) for v in scaling.values],
    }

    if n_return > 0:
        with _stage("return map"):
            component = system.return_map_component
            truth_map = verify.extract_return_map(
                truth.segment(train_points, train_points + n_return), component)
            pred_map = verify.extract_return_map(predicted.segment(0, n_return), component)
            deviation = verify.return_map_deviation(pred_map, truth_map)
            m_range = float(truth_map.maxima.max() - truth_map.maxima.min())
            summary["return_map"] = {
                "component": system.components[component],
                "deviation": deviation,
                "truth_range": m_range,
                "relative_deviation": deviation / m_range,
                "n_truth_maxima": int(truth_map.maxima.size),
                "n_predicted_maxima": int(pred_map.maxima.size),
            }
            truth_map.to_csv(out / "return_map_truth.csv")
            pred_map.to_csv(out / "return_map_forecast.csv")

    summary["readout_ranked"] = _ranked_readout(model, system.components)

    train.to_csv(out / "train.csv")
    truth_test.to_csv(out / "truth.csv")
    pred_test.to_csv(out / "forecast.csv")
    save_model(model, out / "model.json")
    return summary


def _forecast_headline(summary: dict) -> str:
    dists = [e["scaled_distance"] for e in summary["uss"] if e["scaled_distance"] is not None]
    uss = f"worst USS distance {max(dists):.2e}" if dists else "no steady state converged"
    line = (f"valid_time {summary['valid_time_lyapunov']:.2f} Ly "
            f"(median {summary['valid_time_median']:.2f}), {uss}")
    if "return_map" in summary:
        line += f", return map off by {100 * summary['return_map']['relative_deviation']:.3f}%"
    return line


def _run_infer(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
               scaling: ScalingVector, out: Path) -> dict:
    observed = tuple(config["observed"])
    target = config["target"]
    spec = config.feature_spec(len(observed))
    train_points, test_points = config["train_points"], config["test_points"]
    target_scaling = ScalingVector(scaling.values[[target]])

    with _stage("train"):
        train = truth.segment(0, train_points)
        model = _scored(train_inferrer(train, observed, target, spec, config["alpha"]), train)

    with _stage("infer"):
        test = truth.segment(train_points, train_points + test_points)
        inferred = infer(model, test)
        truth_target = test.select([target]).segment(
            spec.warmup_index, test.n_samples)
        test_nrmse = verify.nrmse(inferred, truth_target, target_scaling)

    summary = {
        "observed": list(observed),
        "target": target,
        "feature_dim": model.readout.feature_dim,
        "readout_shape": [model.readout.output_dim, model.readout.feature_dim],
        "alpha": config["alpha"],
        "train_points": train_points,
        "test_points": test_points,
        "train_nrmse": model.metadata["train_nrmse"],
        "test_nrmse": test_nrmse,
        "test_to_train_ratio": test_nrmse / model.metadata["train_nrmse"],
        "readout_ranked": _ranked_readout(model, system.components),
    }

    train.to_csv(out / "train.csv")
    test.to_csv(out / "truth.csv")
    inferred.to_csv(out / "inferred.csv")
    save_model(model, out / "model.json")
    return summary


def _run_sweep(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
               scaling: ScalingVector, out: Path) -> dict:
    spec = config.feature_spec(system.dim)
    sizes = sorted(config["sizes"])
    segments = config["segments"]
    n_horizon, stride = _sweep_steps(config, system)

    rows = []
    with _stage("sweep"):
        for size in sizes:
            cell_errors = []
            for seg in range(segments):
                start = seg * stride
                train = truth.segment(start, start + size)
                seg_model = train_forecaster(train, spec, config["alpha"])
                test = truth.segment(start + size, start + size + n_horizon)
                pred = forecast(seg_model, train, n_horizon)
                cell_errors.append(verify.nrmse(pred, test, scaling))
            cell = np.array(cell_errors)
            rows.append((size, cell.mean(), cell.std(), np.median(cell),
                         cell.min(), cell.max()))

    table = np.array(rows)
    np.savetxt(out / "sweep.csv", table, fmt="%.17g", delimiter=",",
               header="train_points,mean_nrmse,std_nrmse,median_nrmse,min_nrmse,max_nrmse")

    by_size = {int(r[0]): float(r[1]) for r in rows}
    return {
        "alpha": config["alpha"],
        "segments": segments,
        "nrmse_horizon_lyapunov": config["nrmse_horizon"],
        "sizes": [int(s) for s in sizes],
        "mean_nrmse": {str(k): v for k, v in by_size.items()},
        "std_nrmse": {str(int(r[0])): float(r[2]) for r in rows},
    }


def _sweep_headline(summary: dict) -> str:
    sizes = summary["sizes"]
    means = " / ".join(f"{summary['mean_nrmse'][str(size)]:.1e}" for size in sizes)
    return f"mean NRMSE at {'/'.join(map(str, sizes))} points: {means}"


def _run_noise(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
               scaling: ScalingVector, out: Path) -> dict:
    spec = config.feature_spec(system.dim)
    train_points = config["train_points"]
    n_horizon = _horizon_steps(config, system, "rmse_horizon")
    method = TASKS[config.task].method
    # The ground truth's first sample is the on-attractor state itself.
    x0 = truth.values[0]
    unscaled = ScalingVector(np.ones(system.dim))

    scaled_rmses, raw_rmses, noisy_stds = [], [], []
    with _stage("noisy training and forecast"):
        noisy_runs = integrate_noisy(
            system, _integration_config(config, x0, train_points, noisy=True), config["repeats"])
        for rep, noisy in enumerate(noisy_runs):
            noisy_stds.append(noisy.values.std(axis=0))
            rep_model = train_forecaster(noisy, spec, config["alpha"])
            start = noisy.values[-1]
            noise_free = integrate(system, _integration_config(
                config, start, n_horizon + 1, t0=noisy.times[-1], method=method))
            pred = forecast(rep_model, noisy, n_horizon)
            truth_after = noise_free.segment(1, n_horizon + 1)
            scaled_rmses.append(verify.nrmse(pred, truth_after, scaling))
            raw_rmses.append(verify.nrmse(pred, truth_after, unscaled))
            if rep == 0:
                noisy.to_csv(out / "train_noisy.csv")
                truth_after.to_csv(out / "truth_noise_free.csv")
                pred.to_csv(out / "forecast.csv")
                save_model(_scored(rep_model, noisy), out / "model.json")

    return {
        "alpha": config["alpha"],
        "noise_rms": config["noise_rms"],
        "train_points": train_points,
        "repeats": config["repeats"],
        "rmse_horizon_lyapunov": config["rmse_horizon"],
        "scaled_rmse_median": float(np.median(scaled_rmses)),
        "scaled_rmse_values": [float(v) for v in scaled_rmses],
        "raw_rmse_median": float(np.median(raw_rmses)),
        "raw_rmse_values": [float(v) for v in raw_rmses],
        "noisy_component_std_mean": [float(v) for v in np.mean(noisy_stds, axis=0)],
        "noise_free_component_std": [float(v) for v in scaling.values],
    }


def _run_complexity(config: ExperimentConfig) -> dict:
    tables = []
    for case in baseline.COMPLEXITY_CASES:
        ng = baseline.CostParams(**case["ngrc"])
        rows = []
        for row in case["rows"]:
            sizes = {key: row[key] for key in ("m_warmup", "m_train", "n_total", "n_nodes")}
            computed = [baseline.estimate_cost(ng, baseline.CostParams(**sizes, sigma_r=sigma))
                        for sigma in row["sigma_r"]]
            rows.append({**row, "computed_speedup": computed})
        tables.append({**case, "rows": rows})
    return {"tables": tables}


def _complexity_headline(summary: dict) -> str:
    row = summary["tables"][0]["rows"][0]
    lo, hi = row["computed_speedup"]
    return f"speedup vs {row['reference']}: {lo:.1f}-{hi:.1f} (published {row['quoted_speedup']})"


def _run_baseline(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
                  scaling: ScalingVector, out: Path) -> dict:
    train_points, warmup_points = config["train_points"], config["warmup_points"]

    with _stage("reservoir run"):
        reservoir = baseline.build_reservoir(_reservoir_params(config), system.dim)
        states = baseline.reservoir_run(reservoir, truth)

    with _stage("train readout"):
        feats = baseline.quadratic_readout_features(states)
        cols = np.arange(warmup_points, warmup_points + train_points)
        target = truth.segment(warmup_points + 1, warmup_points + train_points + 1)
        readout = ridge_fit(TrainingBlock(feats[:, cols], target.values.T), config["alpha"])
        predicted = TimeSeries(truth.dt, (readout.weights @ feats[:, cols]).T)
        train_nrmse = verify.nrmse(predicted, target, scaling)

    return {
        "n_nodes": config["n_nodes"],
        "feature_dim": int(feats.shape[0]),
        "activation": config["activation"],
        "gamma": config["gamma"],
        "alpha": config["alpha"],
        "train_points": train_points,
        "warmup_points": warmup_points,
        "train_nrmse": train_nrmse,
        "finite": bool(np.isfinite(train_nrmse)),
    }


@dataclass(frozen=True)
class _Task:
    """What one task is, for the CLI, ``ngrc report`` and the reproduce script."""

    defaults: dict  # its keys are the task's allowed keys, besides task, seed and out_dir
    runner: Callable[..., dict]  # (config, system, truth, scaling, out), or (config) alone
    headline: Callable[[dict], str]  # one line of a summary's results
    system: Callable[[], SystemDef] | None = None  # built anew for every run and validation
    method: str | None = None
    # The samples of the ground truth, the longest span that the task integrates.
    # ``_ground_truth`` integrates this many, and ``resolve_config`` builds the
    # same IntegrationConfig, so a dt that this span overflows fails validation.
    truth_samples: Callable[[ExperimentConfig, SystemDef], int] | None = None


# Every task, with its defaults. A task with a system gets a ground truth,
# integrated by its ``method``, which also takes the transient and every other
# noise-free solve of the task. RK23 at the loose default tolerances leaves the
# sampling jitter that the forecast tasks' published alpha is tuned to, so they
# stay on it; infer-lorenz stays on it too (see its defaults). The tight
# (rtol 1e-8) ground truths of noise-lorenz and baseline-rc take DOP853, which
# needs about a tenth of RK23's RHS calls there.
TASKS: dict[str, _Task] = {
    "forecast-lorenz": _Task(
        defaults=dict(_FORECAST_KEYS),
        runner=_run_forecast, system=lorenz63, method="RK23",
        truth_samples=_forecast_truth_samples, headline=_forecast_headline),
    "forecast-doublescroll": _Task(
        defaults={
            **_FORECAST_KEYS,
            "dt": 0.25,
            "transient_time": 100.0,
            "degrees": [3],
            "include_constant": False,
            "return_map_window": 0.0,
        },
        runner=_run_forecast, system=double_scroll, method="RK23",
        truth_samples=_forecast_truth_samples, headline=_forecast_headline),
    "infer-lorenz": _Task(
        defaults={
            **_INTEGRATION_KEYS,
            **_FEATURE_KEYS,
            # open-loop inference has no feedback instability, so accurate data
            # strictly helps; coarse data leaks interpolation noise into the
            # observed components and inflates the testing error. Unlike
            # noise-lorenz and baseline-rc this task stays on RK23: its
            # test/train ratio depends on the exact 400-point window (the bound
            # of 2 already fails for transient_time 27.5), and DOP853 data moves
            # the canonical window itself above the bound.
            "rtol": 1e-8,
            "atol": 1e-10,
            "dt": 0.05,
            "k": 4,
            "s": 5,
            "train_points": 400,
            "test_points": 400,
            "alpha": 2.5e-6,
            "observed": [0, 1],
            "target": 2,
        },
        runner=_run_infer, system=lorenz63, method="RK23",
        truth_samples=lambda config, system: config["train_points"] + config["test_points"],
        headline=lambda summary: (f"train NRMSE {summary['train_nrmse']:.2e}, "
                                  f"test NRMSE {summary['test_nrmse']:.2e} "
                                  f"(ratio {summary['test_to_train_ratio']:.2f})")),
    "sweep-trainsize": _Task(
        defaults={
            **_INTEGRATION_KEYS,
            **_FEATURE_KEYS,
            "alpha": 2.5e-6,
            "sizes": [100, 150, 200, 250, 300, 400, 500, 600, 800, 1000],
            "segments": 20,
            # short enough that poorly trained small-size models give large but
            # finite errors (fluctuations, not overflow), so segment means stay
            # meaningful across the whole size range
            "nrmse_horizon": 0.125,
        },
        runner=_run_sweep, system=lorenz63, method="RK23",
        truth_samples=lambda config, system: (
            config["segments"] * _sweep_steps(config, system)[1] + 1),
        headline=_sweep_headline),
    "noise-lorenz": _Task(
        defaults={
            **_INTEGRATION_KEYS,
            **_FEATURE_KEYS,
            # reference/truth runs here must be far more accurate than the
            # forecast error being measured; the training noise comes from the
            # explicit stochastic forcing, not from integration jitter
            "rtol": 1e-8,
            "atol": 1e-10,
            "train_points": 400,
            "alpha": 1.4e-2,
            "noise_rms": 1.0,
            "substeps": 20,
            "repeats": 10,
            # the published error figure corresponds to roughly a quarter of a
            # Lyapunov time; beyond that chaos amplifies the initial offset
            "rmse_horizon": 0.25,
        },
        runner=_run_noise, system=lorenz63, method="DOP853",
        # a long run, for the scaling; its first sample starts the ensemble
        truth_samples=lambda config, system: 10001,
        headline=lambda summary: (f"median scaled RMSE {summary['scaled_rmse_median']:.2e} "
                                  f"over {summary['repeats']} seeds")),
    "complexity": _Task(defaults={}, runner=_run_complexity, headline=_complexity_headline),
    "baseline-rc": _Task(
        defaults={
            **_INTEGRATION_KEYS,
            "rtol": 1e-8,
            "atol": 1e-10,
            "train_points": 400,
            "warmup_points": 100,
            "alpha": 1e-6,
            **_RESERVOIR_KEYS,
        },
        runner=_run_baseline, system=lorenz63, method="DOP853",
        truth_samples=lambda config, system: (
            config["warmup_points"] + config["train_points"] + 1),
        headline=lambda summary: (f"train NRMSE {summary['train_nrmse']:.2e} "
                                  f"with {summary['n_nodes']} nodes")),
}


# What a run reports as a numerical failure (exit 3). Anything else, such as
# a TypeError from a wrong call, propagates unchanged.
_NUMERICAL_ERRORS = (IntegrationError, SingularSystemError, verify.ReturnMapError,
                     baseline.ReservoirError, np.linalg.LinAlgError, FloatingPointError)


@contextmanager
def _stage(name: str):
    """Names the failing stage when a numerical error escapes an experiment."""
    try:
        yield
    except _NUMERICAL_ERRORS as exc:
        raise NumericalFailure(f"stage '{name}': {exc}") from exc


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment, write its outputs and return its summary.

    Writes summary.json, resolved-config.json and the task's CSVs into the
    config's output directory. Raises NumericalFailure when a numerical
    stage fails. A task with a system gets its ground truth and the scaling
    by that truth's spread from here; the runner adds only its own keys.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = TASKS[config.task]
    summary = {"task": config.task}
    if task.system is None:
        summary.update(task.runner(config))
    else:
        system = task.system()
        with _stage("integrate ground truth"):
            truth = _ground_truth(config, system)
        summary["system"] = system.name
        summary.update(task.runner(config, system, truth, ScalingVector.from_series(truth), out))

    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(out / "resolved-config.json", "w") as fh:
        json.dump(config.to_document(), fh, indent=2)
        fh.write("\n")
    return summary


def _print_report(summary: dict, headline: str) -> None:
    """The task, its headline, then the summary's scalar entries."""
    print(f"task: {summary['task']}")
    print(headline)
    for key, value in summary.items():
        # numbers (booleans among them), strings and null
        if key != "task" and (value is None or isinstance(value, (int, float, str))):
            print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ngrc",
        description="Train, forecast and verify polynomial delay-feature models "
        "of chaotic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="base seed (overrides config)")
    p_run.add_argument("--quiet", action="store_true", help="suppress the summary printout")

    p_val = sub.add_parser("validate", help="check a config file without running")
    p_val.add_argument("config")
    p_val.add_argument("--quiet", action="store_true")

    p_rep = sub.add_parser("report", help="print the summary of a finished run")
    p_rep.add_argument("dir")

    args = parser.parse_args(argv)

    if args.command == "report":
        summary_path = Path(args.dir) / "summary.json"
        try:
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {summary_path}: {exc}", file=sys.stderr)
            return 2
        task = summary.get("task") if isinstance(summary, dict) else None
        if not isinstance(task, str) or task not in TASKS:
            print(f"error: {summary_path} holds no run summary", file=sys.stderr)
            return 2
        try:
            headline = TASKS[task].headline(summary)
        # a key that the task's runner writes is missing, or holds the wrong JSON type
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            problem = f"no key {exc}" if isinstance(exc, KeyError) else str(exc)
            print(f"error: {summary_path} holds no run summary of {task}: {problem}",
                  file=sys.stderr)
            return 2
        _print_report(summary, headline)
        return 0

    overrides = {}
    if args.command == "run":
        overrides = {key: value for key, value in (("seed", args.seed), ("out_dir", args.out))
                     if value is not None}
    try:
        config = validate_config(args.config, overrides)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    if args.command == "validate":
        if not args.quiet:
            print(json.dumps(config.to_document(), indent=2))
        return 0

    try:
        summary = run_experiment(config)
    except (NumericalFailure, *_NUMERICAL_ERRORS) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        _print_report(summary, TASKS[config.task].headline(summary))
        print(f"outputs written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from ._checks import ConfigError, NumericalError, count, number
from .features import FeatureSpec, feature_length, feature_names, window_samples
from .model import (
    NgrcModel,
    forecast,
    infer,
    inference_components,
    save_model,
    train_forecaster,
    train_inferrer,
)
from .regression import ReadoutMatrix
from .systems import (
    IntegrationConfig,
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
    out_dir: str
    settings: dict  # the keys of the task's defaults, each one read by its run

    def __getitem__(self, key):
        return self.settings[key]

    def feature_spec(self, d: int) -> FeatureSpec:
        return FeatureSpec(d=d, **{key: self[key] for key in _FEATURE_KEYS})

    def to_document(self) -> dict:
        """Flat key/value map that reproduces this run when fed back in."""
        return {"task": self.task, **dict(sorted(self.settings.items()))}


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


# One checker per CLI-only key that has an invariant beyond its type; the
# library objects built in resolve_config check the other keys.
_RULES = {
    **dict.fromkeys(("test_horizon", "nrmse_horizon", "rmse_horizon", "return_map_window"),
                    lambda key, v: number(key, v, 0.0)),
    **dict.fromkeys(("train_points", "test_points", "repeats", "segments", "uss_segments"),
                    count),
    # IntegrationConfig checks dt > 0; the horizon and window arithmetic here
    # also needs finitely many samples per time unit, which a subnormal lacks
    "dt": lambda key, v: (f"{key}: must be positive with a finite reciprocal, got {v!r}"
                          if v > 0 and 1 / v == math.inf else None),
    "sizes": lambda key, v: (f"{key} must be one or more distinct counts >= 10, got {v}"
                             if not v or len(set(v)) < len(v) or min(v) < 10
                             else next(filter(None, (count(key, n) for n in v)), None)),
}


def _library_errors(config: ExperimentConfig, system: SystemDef) -> list[str]:
    """The messages of the library objects that the task's runner builds, built as it
    builds them but with the system's dimension, start point and two samples for its data.
    ``resolve_config`` builds the ground truth's span after the cross-key rules."""
    builders = {
        "degrees": lambda: config.feature_spec(system.dim),
        "alpha": lambda: ReadoutMatrix(np.zeros((1, 1)), config["alpha"]),
        "transient_time": lambda: transient_config(system, config["transient_time"],
                                                   config["rtol"], config["atol"],
                                                   TASKS[config.task].method),
        "dt": lambda: _integration_config(config, system.start, 2,
                                          noisy="noise_rms" in config.settings),
        "observed": lambda: inference_components(config["observed"], config["target"],
                                                 system.dim),
        "threshold": lambda: verify.check_valid_time(config["threshold"], system.lyapunov_time),
    }
    errors = []
    for key, build in builders.items():
        try:
            if key in config.settings:
                build()
        except ConfigError as exc:
            errors += [m for m in exc.messages if m not in errors]
    return errors


# The ground truth is integrated and held in memory whole, so its sample count
# has a ceiling far above every canonical task (forecast-lorenz's 40,401 is the
# largest). Integrating it peaks at values plus grid, 32 B a sample of 3 components: 320 MB.
_MAX_TRUTH_SAMPLES = 10**7


# The fit holds its feature block, features x the samples of the largest window
# that the task builds features for, and its Gram matrix, features x features,
# whole, so the larger of the two has a ceiling far above every canonical task
# (sweep-trainsize's 28 x 1,000 is the largest). 8 B an entry: 320 MB.
_MAX_FIT_ENTRIES = 4 * 10**7
_FIT_KEYS = ("k", "degrees", "include_constant", "observed", "train_points", "test_points",
             "sizes")


def _feature_count(spec: FeatureSpec, most: int) -> int:
    """The length of ``spec``'s feature vector, or most + 1 if it is longer, counted
    without the layout table: constant + d*k + C(d*k + p - 1, p) for each degree p.
    For d*k >= 2 degree p adds more than p features, so no binomial is taken of a
    degree above ``most``, which a huge degree would make slow."""
    n = spec.n_linear
    features = spec.include_constant + n
    for p in spec.degrees:
        if features > most:
            break
        features += 1 if n == 1 else math.comb(n + p - 1, p) if p <= most else most + 1
    return min(features, most + 1)


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
    defaults = {"out_dir": f"runs/{task}", **record.defaults}
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
        if problem := _RULES.get(key, lambda key, v: None)(key, value):
            errors.append(problem)
            continue
        settings[key] = value

    config = ExperimentConfig(task=task, out_dir=settings.pop("out_dir"), settings=settings)
    # the nearest path of out_dir and its parents that exists must be a directory
    out = Path(config.out_dir)
    existing = next((path for path in (out, *out.parents) if path.exists()), None)
    if existing and not existing.is_dir():
        errors.append(f"out_dir: {existing} exists and is not a directory")
    if record.system is not None:
        system = record.system()
        errors += _library_errors(config, system)
    if errors:
        raise ConfigError(errors)
    if record.system is None:
        return config

    # Rules across keys, once every key is valid on its own.
    if "degrees" in settings:
        spec = config.feature_spec(len(settings["observed"]) if "observed" in settings
                                   else system.dim)
        windows = [key for key in ("train_points", "test_points", "sizes") if key in settings]
        # Every window needs one full delay window per feature vector; a
        # forecaster also needs the sample after it as a target.
        errors += filter(None, (window_samples(key, int(np.min(settings[key])), spec,
                                               target="observed" not in settings)
                                for key in windows))
        features = _feature_count(spec, math.isqrt(_MAX_FIT_ENTRIES))
        window = max(int(np.max(settings[key])) for key in windows)
        if features * max(features, window) > _MAX_FIT_ENTRIES:
            keys = [key for key in _FIT_KEYS
                    if key in settings and settings[key] != record.defaults[key]]
            errors.append(f"{', '.join(keys)}: the fit's feature block and Gram matrix "
                          f"must hold at most {_MAX_FIT_ENTRIES:,} entries")
    if "test_horizon" in settings and settings["nrmse_horizon"] > settings["test_horizon"]:
        errors.append(f"nrmse_horizon: must not exceed test_horizon={settings['test_horizon']!r}"
                      f", got {settings['nrmse_horizon']!r}")
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
    # are known to be finite: it must fit in memory, and dt must be short
    # enough for its span to be a finite float.
    n_truth = record.truth_samples(config, system)
    if n_truth > _MAX_TRUTH_SAMPLES:
        keys = [key for key in record.truth_keys if settings[key] != record.defaults[key]]
        raise ConfigError([f"{', '.join(keys)}: the ground truth must hold at most "
                           f"{_MAX_TRUTH_SAMPLES:,} samples of dt={dt}"])
    try:
        _integration_config(config, system.start, n_truth, method=record.method)
    except ConfigError as exc:
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
    noise = (dict(seed=config["seed"], noise_rms=config["noise_rms"],
                  substeps=config["substeps"]) if noisy else {})
    return IntegrationConfig(dt=dt, t_span=(t0, t0 + (n_samples - 1) * dt), initial_state=x0,
                             rtol=config["rtol"], atol=config["atol"], method=method, **noise)


def _ground_truth(config: ExperimentConfig, system: SystemDef) -> TimeSeries:
    """The task's ground truth: a trajectory from the attractor after the transient."""
    task = TASKS[config.task]
    x0 = on_attractor_state(system, config["transient_time"], rtol=config["rtol"],
                            atol=config["atol"], method=task.method)
    return integrate(system, _integration_config(config, x0, task.truth_samples(config, system),
                                                 method=task.method))


_FORECAST_TRUTH_KEYS = ("train_points", "uss_segments", "test_horizon", "return_map_window", "dt")


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


def _forecast_window(config: ExperimentConfig, spec: FeatureSpec, truth: TimeSeries, start: int,
                     n_train: int, n_test: int) -> tuple:
    """(train, test, model, predicted): the training window of ``truth`` from ``start``,
    the test window after it, the model fitted on the first and its rollout over the second."""
    train = truth.segment(start, start + n_train)
    test = truth.segment(start + n_train, start + n_train + n_test)
    return (train, test, *_fit_and_forecast(config, spec, train, n_test))


def _fit_and_forecast(config: ExperimentConfig, spec: FeatureSpec, train: TimeSeries,
                      n_steps: int) -> tuple[NgrcModel, TimeSeries]:
    """The model fitted on ``train`` and its rollout of ``n_steps`` from train's end."""
    with _stage("train"):
        model = train_forecaster(train, spec, config["alpha"])
    with _stage("forecast"):
        return model, forecast(model, train, n_steps)


def _spread(scores) -> dict:
    """Per-window scores reduced to their mean, std, median, quartiles (numpy's
    default linear percentiles), min and max, and the count of non-finite scores."""
    values = np.asarray(scores, dtype=float)
    with np.errstate(invalid="ignore"):  # a diverged window's inf is counted, not warned of
        q1, q3 = np.percentile(values, [25, 75])
        return {"mean": float(values.mean()), "std": float(values.std()),
                "median": float(np.median(values)), "q1": float(q1), "q3": float(q3),
                "min": float(values.min()), "max": float(values.max()),
                "nonfinite": int(np.count_nonzero(~np.isfinite(values)))}


def _run_forecast(config: ExperimentConfig, system: SystemDef, truth: TimeSeries,
                  scaling: ScalingVector, out: Path) -> dict:
    spec = config.feature_spec(system.dim)
    train_points = config["train_points"]
    n_test, n_return, n_forecast = _forecast_steps(config, system)
    n_nrmse = _horizon_steps(config, system, "nrmse_horizon")  # at most n_test
    true_uss = system.steady_states()

    # Segment 0 is the canonical model; its test window and rollout also cover
    # the return map. The others are retrained on the following training-length
    # windows of the same trajectory. A rollout that overflows inside its test
    # window is reported by the first step that holds a non-finite component.
    valid_times, first_nonfinite, reports = [], [], []
    for seg in range(config["uss_segments"]):
        window = _forecast_window(config, spec, truth, seg * train_points, train_points,
                                  n_forecast if seg == 0 else n_test)
        _, test, seg_model, predicted = window
        with _stage("verify"):
            valid_times.append(verify.valid_time(predicted.segment(0, n_test),
                                                 test.segment(0, n_test), scaling,
                                                 config["threshold"], system.lyapunov_time))
            nonfinite = np.flatnonzero(~np.isfinite(predicted.values[:n_test]).all(axis=1))
            first_nonfinite.append(int(nonfinite[0]) if nonfinite.size else None)
            reports.append(verify.uss_report(seg_model, true_uss, scaling))
        if seg == 0:
            canonical = window
    train, test, model, predicted = canonical
    valid_spread = _spread(valid_times)

    with _stage("verify"):
        model = _scored(model, train)
        test_nrmse = verify.nrmse(predicted.segment(0, n_nrmse), test.segment(0, n_nrmse), scaling)
        uss_doc = []
        for j, entry in enumerate(reports[0]):
            dists = [d for d in (r[j].scaled_distance for r in reports) if d is not None]
            dispersion = _spread(dists) if dists else {"mean": None, "std": None}
            uss_doc.append({
                "true_state": [float(v) for v in entry.true_state],
                "estimated_state": None if entry.estimated_state is None
                else [float(v) for v in entry.estimated_state],
                "scaled_distance": entry.scaled_distance,
                "dispersion_mean": dispersion["mean"],
                "dispersion_std": dispersion["std"],
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
        "valid_time_median": valid_spread["median"],
        "valid_times": valid_times,
        "valid_time_spread": valid_spread,
        "first_nonfinite_steps": first_nonfinite,
        "diverged_segments": sum(step is not None for step in first_nonfinite),
        "threshold": config["threshold"],
        "uss": uss_doc,
        "scaling": [float(v) for v in scaling.values],
    }

    if n_return > 0:
        with _stage("return map"):
            component = system.return_map_component
            truth_map = verify.extract_return_map(test.segment(0, n_return), component)
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
    test.segment(0, n_test).to_csv(out / "truth.csv")
    predicted.segment(0, n_test).to_csv(out / "forecast.csv")
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
    n_horizon, stride = _sweep_steps(config, system)

    spreads = {}  # by size, as a summary key
    for size in sizes:
        errors = []
        for seg in range(config["segments"]):
            _, test, _, pred = _forecast_window(config, spec, truth, seg * stride, size, n_horizon)
            errors.append(verify.nrmse(pred, test, scaling))
        spreads[str(size)] = _spread(errors)

    table = [[size, *(spreads[str(size)][key] for key in ("mean", "std", "median", "min", "max"))]
             for size in sizes]
    np.savetxt(out / "sweep.csv", np.array(table), fmt="%.17g", delimiter=",",
               header="train_points,mean_nrmse,std_nrmse,median_nrmse,min_nrmse,max_nrmse")

    return {
        "alpha": config["alpha"],
        "segments": config["segments"],
        "nrmse_horizon_lyapunov": config["nrmse_horizon"],
        "sizes": sizes,
        "nrmse_spread": spreads,
        "mean_nrmse": {size: spread["mean"] for size, spread in spreads.items()},
        "std_nrmse": {size: spread["std"] for size, spread in spreads.items()},
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
    unscaled = ScalingVector(np.ones(system.dim))

    with _stage("integrate noisy ensemble"):
        # The ground truth's first sample is the on-attractor state itself.
        noisy_runs = integrate_noisy(system, _integration_config(
            config, truth.values[0], train_points, noisy=True), config["repeats"])
        noise_free = [integrate(system, _integration_config(
            config, noisy.values[-1], n_horizon + 1, t0=noisy.times[-1], method=method))
            for noisy in noisy_runs]
    scaled_rmses, raw_rmses, noisy_stds = [], [], []
    for rep, (noisy, flow) in enumerate(zip(noisy_runs, noise_free)):
        noisy_stds.append(noisy.values.std(axis=0))
        rep_model, pred = _fit_and_forecast(config, spec, noisy, n_horizon)
        truth_after = flow.segment(1, n_horizon + 1)
        scaled_rmses.append(verify.nrmse(pred, truth_after, scaling))
        raw_rmses.append(verify.nrmse(pred, truth_after, unscaled))
        if rep == 0:
            noisy.to_csv(out / "train_noisy.csv")
            truth_after.to_csv(out / "truth_noise_free.csv")
            pred.to_csv(out / "forecast.csv")
            save_model(_scored(rep_model, noisy), out / "model.json")
    scaled_spread = _spread(scaled_rmses)

    return {
        "alpha": config["alpha"],
        "noise_rms": config["noise_rms"],
        "train_points": train_points,
        "repeats": config["repeats"],
        "rmse_horizon_lyapunov": config["rmse_horizon"],
        "scaled_rmse_median": scaled_spread["median"],
        "scaled_rmse_values": [float(v) for v in scaled_rmses],
        "scaled_rmse_spread": scaled_spread,
        "raw_rmse_median": _spread(raw_rmses)["median"],
        "raw_rmse_values": [float(v) for v in raw_rmses],
        "noisy_component_std_mean": [float(v) for v in np.mean(noisy_stds, axis=0)],
        "noise_free_component_std": [float(v) for v in scaling.values],
    }


# Published speedup figures for the reference reservoir implementations, keyed
# by the forecast task whose default model they are compared with, and laid out
# as the rows that the complexity task reports; it fills in computed_speedup.
_COMPLEXITY_REFERENCES = {
    "forecast-lorenz": [
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
    "forecast-doublescroll": [
        {"reference": "low-connectivity RC", "m_warmup": 1000, "m_train": 1000,
         "n_total": 100, "n_nodes": 100, "sigma_r": [0.01, 0.05],
         "computed_speedup": None, "quoted_speedup": "8-41"},
    ],
}


def _run_complexity(config: ExperimentConfig) -> dict:
    tables = []
    for task, references in _COMPLEXITY_REFERENCES.items():
        record = TASKS[task]
        system = record.system()
        spec = replace(config, task=task, settings=record.defaults).feature_spec(system.dim)
        n_total = feature_length(spec)
        ngrc = {"m_warmup": spec.warmup_index + 1, "m_train": record.defaults["train_points"],
                "n_total": n_total, "n_nonlinear": n_total - spec.n_linear - spec.include_constant}
        ng = baseline.CostParams(**ngrc)
        rows = []
        for row in references:
            sizes = {key: row[key] for key in ("m_warmup", "m_train", "n_total", "n_nodes")}
            computed = [baseline.estimate_cost(ng, baseline.CostParams(**sizes, sigma_r=sigma))
                        for sigma in row["sigma_r"]]
            rows.append({**row, "computed_speedup": computed})
        tables.append({"system": system.name, "ngrc": ngrc, "rows": rows})
    return {"tables": tables}


def _complexity_headline(summary: dict) -> str:
    row = summary["tables"][0]["rows"][0]
    lo, hi = row["computed_speedup"]
    return f"speedup vs {row['reference']}: {lo:.1f}-{hi:.1f} (published {row['quoted_speedup']})"


@dataclass(frozen=True)
class _Task:
    """What one task is, for the CLI, ``ngrc report`` and the reproduce script."""

    defaults: dict  # its keys are the task's allowed keys, besides task and out_dir
    runner: Callable[..., dict]  # (config, system, truth, scaling, out), or (config) alone
    headline: Callable[[dict], str]  # one line of a summary's results
    system: Callable[[], SystemDef] | None = None  # built anew for every run and validation
    method: str | None = None
    # The samples of the ground truth, the longest span that the task integrates.
    # ``_ground_truth`` integrates this many, and ``resolve_config`` builds the
    # same IntegrationConfig, so a dt that this span overflows fails validation.
    truth_samples: Callable[[ExperimentConfig, SystemDef], int] | None = None
    truth_keys: tuple[str, ...] = ()  # the keys that truth_samples reads


# Every task, with its defaults. A task with a system gets a ground truth,
# integrated by its ``method``, which also takes the transient and every other
# noise-free solve of the task. RK23 at the loose default tolerances leaves the
# sampling jitter that the forecast tasks' published alpha is tuned to, so they
# stay on it; infer-lorenz stays on it too (see its defaults). The tight
# (rtol 1e-8) ground truth of noise-lorenz takes DOP853, which needs about a
# tenth of RK23's RHS calls there.
TASKS: dict[str, _Task] = {
    "forecast-lorenz": _Task(
        defaults=dict(_FORECAST_KEYS),
        runner=_run_forecast, system=lorenz63, method="RK23",
        truth_samples=_forecast_truth_samples, truth_keys=_FORECAST_TRUTH_KEYS,
        headline=_forecast_headline),
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
        truth_samples=_forecast_truth_samples, truth_keys=_FORECAST_TRUTH_KEYS,
        headline=_forecast_headline),
    "infer-lorenz": _Task(
        defaults={
            **_INTEGRATION_KEYS,
            **_FEATURE_KEYS,
            # open-loop inference has no feedback instability, so accurate data
            # strictly helps; coarse data leaks interpolation noise into the
            # observed components and inflates the testing error. Unlike
            # noise-lorenz this task stays on RK23: its test/train ratio
            # depends on the exact 400-point window (the bound of 2 already
            # fails for transient_time 27.5), and DOP853 data moves the
            # canonical window itself above the bound.
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
        truth_keys=("train_points", "test_points"),
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
        truth_keys=("segments", "sizes", "nrmse_horizon", "dt"),
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
            # the base of the noise paths' seeds, the one random input of any task
            "seed": 0,
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
}


# What a run reports as a numerical failure (exit 3). Anything else, such as
# a TypeError from a wrong call, propagates unchanged.
_NUMERICAL_ERRORS = (NumericalError, np.linalg.LinAlgError, FloatingPointError)


@contextmanager
def _stage(name: str):
    """Names the failing stage when a numerical error escapes an experiment."""
    try:
        yield
    except _NUMERICAL_ERRORS as exc:
        raise NumericalError(f"stage '{name}': {exc}") from exc


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment, write its outputs and return its summary.

    Writes summary.json, resolved-config.json and the task's CSVs into the
    config's output directory. Raises ConfigError when that directory
    cannot be created and NumericalError when a numerical stage fails. A
    task with a system gets its ground truth and the scaling by that
    truth's spread from here; the runner adds only its own keys.
    """
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create {out}: {exc.strerror or exc}"]) from exc
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
    p_run.add_argument("--seed", type=int, help="noise-lorenz's base seed (overrides config)")
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
        if not isinstance(task, str):
            print(f"error: {summary_path} holds no run summary", file=sys.stderr)
            return 2
        if task not in TASKS:
            print(f"error: {summary_path} holds a summary of unknown task {task!r}",
                  file=sys.stderr)
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
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:  # the output directory cannot be created
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        _print_report(summary, TASKS[config.task].headline(summary))
        print(f"outputs written to {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

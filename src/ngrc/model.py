"""Training and running NG-RC models.

Two workflows are supported. A forecaster learns the one-step difference
X_{i+1} - X_i from the feature vector built at step i and runs closed-loop:
each prediction is appended to the delay window and fed back. An inferrer
learns a hidden component directly from features of the observed components
and runs open-loop.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields
from math import inf

import numpy as np

from .features import (
    FeatureSpec,
    WarmupError,
    feature_block,
    feature_length,
    feature_writer,
    total_features,  # noqa: F401  (benchmarks trace features through ngrc.model)
)
from ._checks import integer, integers, reject
from .regression import ReadoutMatrix, TrainingBlock, ridge_fit
from .timeseries import TimeSeries

SERIAL_FORMAT_VERSION = 1


class Mode(enum.Enum):
    FORECAST_DELTA = "forecast-delta"
    INFERENCE_DIRECT = "inference-direct"


@dataclass(frozen=True)
class NgrcModel:
    """A trained feature spec + readout pair with its operating mode.

    ``input_indices`` are the component columns (of the training series)
    that feed the features: all of them for forecasting, the observed
    subset for inference. Models are immutable after training.
    """

    spec: FeatureSpec
    readout: ReadoutMatrix
    mode: Mode
    input_indices: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        indices, d, expected = tuple(self.input_indices), self.spec.d, feature_length(self.spec)
        reject(integers("input_indices", indices, 0)
               or (len(set(indices)) < len(indices) and f"duplicate input_indices in {indices}"),
               len(indices) != d and f"{len(indices)} input indices for spec with d = {d}",
               self.mode is Mode.FORECAST_DELTA and self.output_dim != d
               and "closed-loop forecasting requires output_dim == d "
               f"(got {self.output_dim} != {d})",
               self.readout.feature_dim != expected
               and f"readout expects {self.readout.feature_dim} features, spec defines {expected}")
        object.__setattr__(self, "input_indices", tuple(map(int, indices)))

    @property
    def output_dim(self) -> int:
        """The number of readout rows: d for a forecaster, 1 for an inferrer."""
        return self.readout.output_dim


def _training_indices(spec: FeatureSpec, n_samples: int, need_target: bool) -> np.ndarray:
    first = spec.warmup_index
    last = n_samples - 1 - int(need_target)
    if last < first:
        raise ValueError(
            f"series too short: {n_samples} samples, need at least "
            f"{first + 1 + int(need_target)} for this spec"
        )
    return np.arange(first, last + 1)


def train_forecaster(series: TimeSeries, spec: FeatureSpec, alpha: float) -> NgrcModel:
    """Fit a closed-loop forecaster on one trajectory.

    Feature columns are built at every index past warm-up that still has a
    successor; the matching target is the one-step difference
    X_{i+1} - X_i. Training NRMSE (per-component std scaling over the
    training series) is recorded in the model metadata.
    """
    idx = _training_indices(spec, series.n_samples, need_target=True)
    feats = feature_block(series, spec, idx)
    targets = (series.values[idx + 1] - series.values[idx]).T
    readout = ridge_fit(TrainingBlock(feats, targets), alpha)

    predicted = series.values[idx] + (readout.weights @ feats).T
    scale = series.values.std(axis=0)
    scale[scale == 0] = 1.0
    err = (predicted - series.values[idx + 1]) / scale
    train_nrmse = float(np.sqrt(np.mean(err**2)))

    return NgrcModel(
        spec=spec,
        readout=readout,
        mode=Mode.FORECAST_DELTA,
        input_indices=tuple(range(spec.d)),
        metadata={"train_nrmse": train_nrmse, "train_samples": int(len(idx))},
    )


def forecast(model: NgrcModel, warmup: TimeSeries, n_steps: int) -> TimeSeries:
    """Run the trained forecaster autonomously for n_steps.

    The warm-up series seeds the delay window; afterwards every prediction
    is fed back, so the model is a self-contained dynamical system. The
    returned series holds only the predicted samples and starts one dt
    after the last warm-up sample.

    The feature buffers (``feature_writer``) are set up once per call. Each
    step copies its delay window, a strided view of the buffer, into the
    linear block, forms the features as ``total_features`` forms them and
    adds ``weights @ features`` to the newest sample, so the rollout equals,
    bit for bit, one ``total_features`` call per step.
    """
    spec = model.spec
    reject(model.mode is not Mode.FORECAST_DELTA
           and f"forecast requires a {Mode.FORECAST_DELTA.value} model, got {model.mode.value}",
           integer("n_steps", n_steps, 1),
           warmup.n_components != spec.d
           and f"warm-up has {warmup.n_components} components but spec.d = {spec.d}")
    depth = spec.warmup_index + 1
    if warmup.n_samples < depth:
        raise WarmupError(
            f"warm-up needs at least (k-1)*s + 1 = {depth} samples, got {warmup.n_samples}"
        )
    # Warm-up and predictions share one buffer, oldest first; the taps of
    # step i are rows i + depth - 1 - js of it, newest first.
    buf = np.empty((depth + n_steps, spec.d))
    buf[:depth] = warmup.values[-depth:]
    lin, features = feature_writer(spec)
    weights = model.readout.weights
    # A model that escapes its attractor overflows to inf/nan; downstream
    # metrics treat non-finite samples as failed predictions, so the rollout
    # itself must not raise.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            lin[...] = buf[i:i + depth:spec.s][::-1]
            buf[depth + i] = buf[depth + i - 1] + weights @ features()
    return TimeSeries(dt=warmup.dt, values=buf[depth:], t0=warmup.t0 + warmup.n_samples * warmup.dt)


def train_inferrer(series: TimeSeries, observed, target: int, spec: FeatureSpec,
                   alpha: float) -> NgrcModel:
    """Fit an open-loop inferrer for one hidden component.

    Features are built from the observed component columns only; the target
    is the hidden component at the same index (no difference form, the
    constant feature absorbs any offset).
    """
    observed = tuple(observed)
    reject(integers("observed", observed, -inf), integer("target", target, -inf))
    observed, target = tuple(map(int, observed)), int(target)
    reject(target in observed
           and f"target component {target} must not be among the observed {observed}",
           not all(0 <= i < series.n_components for i in (*observed, target))
           and f"component index out of range for series with {series.n_components} components")
    obs_series = series.select(observed)
    idx = _training_indices(spec, series.n_samples, need_target=False)
    feats = feature_block(obs_series, spec, idx)
    targets = series.values[idx, target][None, :]
    readout = ridge_fit(TrainingBlock(feats, targets), alpha)

    predicted = readout.weights @ feats
    scale = float(series.values[:, target].std()) or 1.0
    train_nrmse = float(np.sqrt(np.mean(((predicted - targets) / scale) ** 2)))

    return NgrcModel(
        spec=spec,
        readout=readout,
        mode=Mode.INFERENCE_DIRECT,
        input_indices=observed,
        metadata={"train_nrmse": train_nrmse, "target_index": target,
                  "train_samples": int(len(idx))},
    )


def infer(model: NgrcModel, series: TimeSeries) -> TimeSeries:
    """Estimate the hidden component at every index past warm-up.

    ``series`` must use the same component layout as the training series
    (the model selects its observed columns by index). Open loop: nothing
    is fed back.
    """
    reject(model.mode is not Mode.INFERENCE_DIRECT
           and f"infer requires a {Mode.INFERENCE_DIRECT.value} model, got {model.mode.value}",
           not all(0 <= i < series.n_components for i in model.input_indices)
           and f"model reads components {model.input_indices} but series has "
           f"{series.n_components}")
    obs_series = series.select(model.input_indices)
    idx = _training_indices(model.spec, series.n_samples, need_target=False)
    feats = feature_block(obs_series, model.spec, idx)
    values = (model.readout.weights @ feats).T
    return TimeSeries(dt=series.dt, values=values, t0=series.t0 + idx[0] * series.dt)


def to_document(model: NgrcModel) -> dict:
    """Flat, versioned dict capturing the model exactly."""
    return {
        "format_version": SERIAL_FORMAT_VERSION,
        "mode": model.mode.value,
        "d": model.spec.d,
        "k": model.spec.k,
        "s": model.spec.s,
        "degrees": list(model.spec.degrees),
        "include_constant": model.spec.include_constant,
        "constant_value": model.spec.constant_value,
        "input_indices": list(model.input_indices),
        "output_dim": model.output_dim,
        "alpha": model.readout.alpha,
        "weights": [[float(w) for w in row] for row in model.readout.weights],
        "metadata": model.metadata,
    }


def from_document(doc: dict) -> NgrcModel:
    version = doc.get("format_version")
    if version != SERIAL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    spec = FeatureSpec(**{field.name: doc[field.name] for field in fields(FeatureSpec)})
    readout = ReadoutMatrix(weights=doc["weights"], alpha=doc["alpha"])
    if doc["output_dim"] != readout.output_dim:
        raise ValueError(f"output_dim {doc['output_dim']!r} does not match the "
                         f"{readout.output_dim} rows of the weights")
    return NgrcModel(
        spec=spec,
        readout=readout,
        mode=Mode(doc["mode"]),
        input_indices=tuple(doc["input_indices"]),
        metadata=dict(doc.get("metadata", {})),
    )


def save_model(model: NgrcModel, path) -> None:
    """Write the model as human-readable JSON; floats round-trip bit-exactly."""
    with open(path, "w") as fh:
        json.dump(to_document(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> NgrcModel:
    with open(path) as fh:
        return from_document(json.load(fh))

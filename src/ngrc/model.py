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
from dataclasses import asdict, dataclass, field, fields
from math import inf

import numpy as np

from .features import (
    FeatureSpec,
    WarmupError,
    feature_block,
    feature_length,
    feature_writer,
    total_features,  # noqa: F401  (benchmarks trace features through ngrc.model)
    window_samples,
)
from ._checks import ConfigError, integer, integers, reject, trusted
from .regression import ReadoutMatrix, TrainingBlock, ridge_fit
from .timeseries import TimeSeries

SERIAL_FORMAT_VERSION = 2


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
    if problem := window_samples("series", n_samples, spec, need_target):
        raise ValueError(problem)
    return np.arange(spec.warmup_index, n_samples - need_target)


def train_forecaster(series: TimeSeries, spec: FeatureSpec, alpha: float) -> NgrcModel:
    """Fit a closed-loop forecaster on one trajectory.

    Feature columns are built at every index past warm-up that still has a
    successor; the matching target is the one-step difference
    X_{i+1} - X_i. The model metadata records the number of training
    samples. Training only fits: :func:`ngrc.verify.training_nrmse` scores
    the fit on the same series.
    """
    idx = _training_indices(spec, series.n_samples, need_target=True)
    feats = feature_block(series, spec, idx)
    steps = series.values[idx[0]:]  # samples idx[0], ..., idx[-1] + 1, the last one
    targets = (steps[1:] - steps[:-1]).T
    # Both are right by construction: the block's columns pair up, and the
    # readout has d rows of feature_length(spec) weights.
    readout = ridge_fit(trusted(TrainingBlock, features=feats, targets=targets), alpha)
    return trusted(NgrcModel, spec=spec, readout=readout, mode=Mode.FORECAST_DELTA,
                   input_indices=tuple(range(spec.d)),
                   metadata={"train_samples": int(len(idx))})


def forecast(model: NgrcModel, warmup: TimeSeries, n_steps: int) -> TimeSeries:
    """Run the trained forecaster autonomously for n_steps.

    The warm-up series seeds the delay window; afterwards every prediction
    is fed back, so the model is a self-contained dynamical system. The
    returned series holds only the predicted samples and starts one dt
    after the last warm-up sample. Its values are the rollout's own buffer,
    made read-only.

    The feature buffers (``feature_writer``) are set up once per call. Each
    step copies its delay window, a strided view of the buffer, into the
    linear block, forms the features as ``total_features`` forms them and
    adds ``weights.dot(features)`` (the product ``weights @ features``,
    without the operator's dispatch) to the newest sample, so the rollout
    equals, bit for bit, one ``total_features`` call per step.
    """
    spec = model.spec
    reject(model.mode is not Mode.FORECAST_DELTA
           and f"forecast requires a {Mode.FORECAST_DELTA.value} model, got {model.mode.value}",
           integer("n_steps", n_steps, 1),
           warmup.n_components != spec.d
           and f"warm-up has {warmup.n_components} components but spec.d = {spec.d}")
    if problem := window_samples("warm-up", warmup.n_samples, spec):
        raise WarmupError(problem)
    depth = spec.warmup_index + 1
    # Warm-up and predictions share one buffer, oldest first. The taps of the
    # step that writes row i are rows i - 1 - js of it, newest first: rows
    # end - i + js of its reversal, where end is the buffer's length.
    end, s = depth + n_steps, spec.s
    buf = np.empty((end, spec.d))
    buf[:depth] = warmup.values[-depth:]
    newest_first = buf[::-1]
    lin, features = feature_writer(spec)
    weights = model.readout.weights
    # A model that escapes its attractor overflows to inf/nan; downstream
    # metrics treat non-finite samples as failed predictions, so the rollout
    # itself must not raise.
    with np.errstate(over="ignore", invalid="ignore"):
        newest = buf[depth - 1]
        for i in range(depth, end):
            lin[...] = newest_first[end - i:end - i + depth:s]
            buf[i] = newest = newest + weights.dot(features())
    values = buf[depth:]
    values.setflags(write=False)
    return trusted(TimeSeries, dt=warmup.dt, values=values,
                   t0=warmup.t0 + warmup.n_samples * warmup.dt)


def train_inferrer(series: TimeSeries, observed, target: int, spec: FeatureSpec,
                   alpha: float) -> NgrcModel:
    """Fit an open-loop inferrer for one hidden component.

    Features are built from the observed component columns only; the target
    is the hidden component at the same index (no difference form, the
    constant feature absorbs any offset). The model metadata records the
    target index and the number of training samples;
    :func:`ngrc.verify.training_nrmse` scores the fit.
    """
    observed, target = inference_components(observed, target, series.n_components)
    obs_series = series.select(observed)
    idx = _training_indices(spec, series.n_samples, need_target=False)
    feats = feature_block(obs_series, spec, idx)  # rejects a spec whose d is not len(observed)
    targets = series.values[idx, target][None, :]
    readout = ridge_fit(TrainingBlock(feats, targets), alpha)
    return trusted(NgrcModel, spec=spec, readout=readout, mode=Mode.INFERENCE_DIRECT,
                   input_indices=observed,
                   metadata={"target_index": target, "train_samples": int(len(idx))})


def inference_components(observed, target, n_components: int) -> tuple[tuple[int, ...], int]:
    """``observed`` and ``target`` as ints, if they are one or more distinct observed
    components and a target that is not among them, all in [0, n_components)."""
    observed = tuple(observed)
    reject(integers("observed", observed, -inf)
           or (not observed or len(set(observed)) < len(observed))
           and f"observed must be one or more distinct components, got {observed}",
           integer("target", target, -inf))
    observed, target = tuple(map(int, observed)), int(target)
    reject(target in observed
           and f"target component {target} must not be among the observed {observed}",
           not all(0 <= i < n_components for i in observed)
           and f"observed components {observed} out of range for {n_components} components",
           not 0 <= target < n_components
           and f"target component {target} out of range for {n_components} components")
    return observed, target


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
        **asdict(model.spec),
        "input_indices": list(model.input_indices),
        "output_dim": model.output_dim,
        "alpha": model.readout.alpha,
        "weights": [[float(w) for w in row] for row in model.readout.weights],
        "metadata": model.metadata,
    }


def from_document(doc: dict) -> NgrcModel:
    """The model that :func:`to_document` wrote. A document that is not one, or
    whose entries make no valid model, is a ValueError that names the entry."""
    if not isinstance(doc, dict):
        raise ConfigError([f"model document must be a JSON object, got {type(doc).__name__}"])
    version = doc.get("format_version")
    if version != SERIAL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    spec_keys = [field.name for field in fields(FeatureSpec)]
    reject(*(key not in doc and f"model document lacks {key}" for key in
             ("mode", *spec_keys, "input_indices", "output_dim", "alpha", "weights")))
    reject(*(not isinstance(doc[key], (list, tuple)) and f"{key} must be a list, got {doc[key]!r}"
             for key in ("degrees", "input_indices", "weights")),
           not isinstance(doc.get("metadata", {}), dict)
           and f"metadata must be a JSON object, got {doc['metadata']!r}")
    spec = FeatureSpec(**{key: doc[key] for key in spec_keys})
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

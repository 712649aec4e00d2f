import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngrc import (
    FeatureSpec,
    Mode,
    ReadoutMatrix,
    TimeSeries,
    WarmupError,
    forecast,
    from_document,
    infer,
    load_model,
    save_model,
    to_document,
    total_features,
    train_forecaster,
    train_inferrer,
    training_nrmse,
)
from ngrc._checks import ConfigError


def naive_rollout(model, warmup, n_steps):
    """Reference closed-loop rollout with explicit python lists."""
    spec = model.spec
    depth = spec.warmup_index + 1
    history = [row.copy() for row in warmup.values[-depth:]]
    out = []
    for _ in range(n_steps):
        taps = np.array([history[len(history) - 1 - j * spec.s] for j in range(spec.k)])
        delta = model.readout.weights @ total_features(taps.ravel(), spec)
        state = history[-1] + delta
        out.append(state)
        history.append(state)
    return np.array(out)


def check_forecast_matches_naive_rollout(model, train):
    warmup = train.segment(train.n_samples - 3 * model.spec.warmup_index - 3, train.n_samples)
    predicted = forecast(model, warmup, 100)
    assert np.array_equal(predicted.values, naive_rollout(model, warmup, 100))
    return predicted, warmup


def test_forecast_matches_naive_rollout_bit_exact(lorenz_task):
    predicted, warmup = check_forecast_matches_naive_rollout(lorenz_task.model,
                                                             lorenz_task.train)
    assert predicted.dt == warmup.dt
    assert predicted.t0 == pytest.approx(warmup.t0 + warmup.n_samples * warmup.dt)


def test_forecast_matches_naive_rollout_bit_exact_wider_spec(lorenz_task):
    # Three taps two samples apart exercise the rollout buffer's tap rows.
    # At the canonical alpha this 220-feature fit is singular or its
    # 100-step rollout diverges, hence the larger alpha.
    spec = FeatureSpec(d=3, k=3, s=2, degrees=(2, 3))
    model = train_forecaster(lorenz_task.train, spec, alpha=0.1)
    check_forecast_matches_naive_rollout(model, lorenz_task.train)


def test_recovers_linear_map_exactly():
    # x_{i+1} = A x_i is inside the pure-linear model class, so ridge at
    # alpha=0 must recover W = A - I and the closed loop must track exactly.
    A = np.array([[0.9, 0.1], [-0.2, 0.8]])
    states = [np.array([1.0, 0.5])]
    for _ in range(60):
        states.append(A @ states[-1])
    series = TimeSeries(dt=1.0, values=np.array(states))
    spec = FeatureSpec(d=2, k=1, s=1, degrees=(), include_constant=False)
    model = train_forecaster(series, spec, alpha=0.0)
    assert np.abs(model.readout.weights - (A - np.eye(2))).max() < 1e-10

    warmup = series.segment(0, 1)
    predicted = forecast(model, warmup, 20)
    assert np.abs(predicted.values - series.values[1:21]).max() < 1e-9


def test_constant_series_trains_to_zero_readout():
    series = TimeSeries(dt=0.1, values=np.tile([1.5, -2.0, 0.25], (40, 1)))
    spec = FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=True)
    model = train_forecaster(series, spec, alpha=1e-6)
    # all one-step differences vanish, so the minimizer is the zero matrix
    assert np.abs(model.readout.weights).max() < 1e-12
    assert training_nrmse(model, series) == 0.0


def test_train_forecaster_metadata_counts(lorenz_task):
    model = lorenz_task.model
    assert model.metadata["train_samples"] == (
        lorenz_task.train.n_samples - lorenz_task.spec.warmup_index - 1)
    assert 0.0 < training_nrmse(model, lorenz_task.train) < 1e-3
    assert model.mode is Mode.FORECAST_DELTA


def test_forecast_validates_warmup_and_mode(lorenz_task):
    model = lorenz_task.model
    short = lorenz_task.train.segment(0, model.spec.warmup_index)
    with pytest.raises(WarmupError):
        forecast(model, short, 5)
    wrong_width = TimeSeries(dt=0.025, values=np.zeros((10, 2)))
    with pytest.raises(ValueError):
        forecast(model, wrong_width, 5)
    with pytest.raises(ValueError):
        forecast(model, lorenz_task.train, 0)


def test_train_forecaster_rejects_mismatched_series():
    series = TimeSeries(dt=0.1, values=np.random.default_rng(0).normal(size=(30, 2)))
    with pytest.raises(ValueError):
        train_forecaster(series, FeatureSpec(d=3, k=2, s=1, degrees=(2,)), alpha=1e-6)
    tiny = TimeSeries(dt=0.1, values=np.ones((3, 2)))
    with pytest.raises(ValueError):
        train_forecaster(tiny, FeatureSpec(d=2, k=4, s=5, degrees=(2,)), alpha=1e-6)


def test_serialization_roundtrip_preserves_forecasts(lorenz_task, tmp_path):
    model = lorenz_task.model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.readout.weights, model.readout.weights)
    assert loaded.spec == model.spec
    assert loaded.mode is model.mode
    assert loaded.metadata == model.metadata
    assert to_document(loaded) == to_document(model)

    depth = model.spec.warmup_index + 1
    warmup = lorenz_task.train.segment(0, depth + 4)
    assert np.array_equal(forecast(loaded, warmup, 50).values,
                          forecast(model, warmup, 50).values)


@settings(max_examples=8)
@given(start=st.integers(0, 3000))
def test_forecast_independent_of_weight_layout(lorenz_task, start):
    # The readout stores one layout whatever it is given, so copies, layout
    # changes and a save/load cycle must not move the BLAS summation order.
    model = lorenz_task.model
    trained = model.readout.weights
    alpha = model.readout.alpha
    variants = (
        replace(model, readout=ReadoutMatrix(np.asfortranarray(trained), alpha)),
        replace(model, readout=ReadoutMatrix(trained.T.copy().T, alpha)),
        from_document(to_document(model)),
    )
    warmup = lorenz_task.mother.segment(start, start + model.spec.warmup_index + 5)
    reference = forecast(model, warmup, 250).values
    for variant in variants:
        assert np.array_equal(forecast(variant, warmup, 250).values, reference)


def test_from_document_rejects_unknown_format(lorenz_task):
    doc = to_document(lorenz_task.model)
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format version"):
        from_document(doc)
    # format 1 held the constant feature's value, which is now always 1
    doc["format_version"] = 1
    with pytest.raises(ValueError, match="^unsupported model format version 1$"):
        from_document(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_model_rejects_nonfinite_weights(lorenz_task, tmp_path, bad):
    # a model that would forecast NaN from its first step is not loaded
    doc = to_document(lorenz_task.model)
    doc["weights"][1][4] = bad
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="weights must be finite"):
        load_model(path)


def test_load_model_rejects_indices_it_would_truncate_or_duplicate(lorenz_task, tmp_path):
    doc = to_document(lorenz_task.model)
    path = tmp_path / "model.json"
    for indices, message in (([0.5, 1, 2], "input_indices must be integers"),
                             ([True, 1, 2], "input_indices must be integers"),
                             ([0, 1, 1], "duplicate input_indices"),
                             ([0, 1.0, 1], "duplicate input_indices")):
        path.write_text(json.dumps({**doc, "input_indices": indices}))
        with pytest.raises(ValueError, match=message):
            load_model(path)
    path.write_text(json.dumps({**doc, "input_indices": [0, 1.0, 2]}))
    assert load_model(path).input_indices == (0, 1, 2)


def test_from_document_rejects_malformed_documents(lorenz_task):
    # a document that is no model is a rejected input that names its entry,
    # not a KeyError, AttributeError or TypeError from reading it
    doc = to_document(lorenz_task.model)
    without = lambda key: {k: v for k, v in doc.items() if k != key}  # noqa: E731
    for bad, field in ((without("mode"), "lacks mode"), (without("weights"), "lacks weights"),
                       ([doc], "JSON object"), ({**doc, "metadata": [1]}, "metadata"),
                       ({**doc, "input_indices": 3}, "input_indices"),
                       ({**doc, "weights": {"w": 1}}, "weights"),
                       ({**doc, "weights": [[[0.0] * 28]] * 3}, "weights must be a 2-D"),
                       ({**doc, "weights": [[0.0] * 28, [0.0] * 27, [0.0] * 28]},
                        "weights must be a 2-D"),
                       ({**doc, "weights": [["0"] * 28] * 3}, "weights must be a 2-D"),
                       ({**doc, "k": "2"}, "k must be an integer"),
                       ({**doc, "alpha": "x"}, "alpha")):
        with pytest.raises(ConfigError, match=field):
            from_document(bad)


def test_from_document_checks_output_dim_against_weights(lorenz_task):
    doc = to_document(lorenz_task.model)
    assert doc["output_dim"] == lorenz_task.model.output_dim == 3
    doc["output_dim"] = 2
    with pytest.raises(ValueError, match="output_dim 2 does not match the 3 rows"):
        from_document(doc)


def test_inferrer_alignment_and_accuracy(accurate_lorenz):
    spec = FeatureSpec(d=2, k=4, s=5, degrees=(2,), include_constant=True)
    model = train_inferrer(accurate_lorenz, observed=(0, 1), target=2, spec=spec,
                           alpha=2.5e-6)
    assert model.mode is Mode.INFERENCE_DIRECT
    assert model.output_dim == 1
    assert model.metadata["target_index"] == 2

    estimated = infer(model, accurate_lorenz)
    offset = spec.warmup_index
    assert estimated.n_samples == accurate_lorenz.n_samples - offset
    assert estimated.t0 == pytest.approx(accurate_lorenz.t0 + offset * accurate_lorenz.dt)
    truth = accurate_lorenz.values[offset:, 2]
    scale = accurate_lorenz.values[:, 2].std()
    nrmse = np.sqrt(np.mean(((estimated.values[:, 0] - truth) / scale) ** 2))
    assert nrmse < 5e-2


def test_train_inferrer_rejects_bad_component_choices(accurate_lorenz):
    spec = FeatureSpec(d=2, k=4, s=5, degrees=(2,), include_constant=True)
    with pytest.raises(ValueError, match="must not be among"):
        train_inferrer(accurate_lorenz, observed=(0, 2), target=2, spec=spec, alpha=1e-6)
    with pytest.raises(ValueError):
        train_inferrer(accurate_lorenz, observed=(0,), target=2, spec=spec, alpha=1e-6)
    with pytest.raises(ValueError, match="out of range"):
        train_inferrer(accurate_lorenz, observed=(0, 1), target=7, spec=spec, alpha=1e-6)
    # negative indices would alias components from the end
    with pytest.raises(ValueError, match="out of range"):
        train_inferrer(accurate_lorenz, observed=(0, 1), target=-1, spec=spec, alpha=1e-6)
    with pytest.raises(ValueError, match="out of range"):
        train_inferrer(accurate_lorenz, observed=(-3, 1), target=2, spec=spec, alpha=1e-6)
    # fractional or boolean indices are refused, not truncated
    for observed, target, field in [((0.5, 1.9), 2, "observed"), ((0, 1), 2.7, "target"),
                                    ((True, 0), 2, "observed"), ((0, 1), True, "target"),
                                    ((0, np.True_), 2, "observed")]:
        with pytest.raises(ValueError, match=field):
            train_inferrer(accurate_lorenz, observed=observed, target=target, spec=spec,
                           alpha=1e-6)
    model = train_inferrer(accurate_lorenz, observed=(0, 1), target=2, spec=spec, alpha=1e-6)
    with pytest.raises(ValueError, match="model reads components"):
        infer(replace(model, input_indices=(0, 3)), accurate_lorenz)
    # a negative index is refused by the model itself
    with pytest.raises(ValueError, match="input_indices must all be >= 0"):
        replace(model, input_indices=(-3, 1))


def test_infer_requires_inference_model(lorenz_task, accurate_lorenz):
    with pytest.raises(ValueError):
        infer(lorenz_task.model, accurate_lorenz)
    spec = FeatureSpec(d=2, k=2, s=1, degrees=(2,), include_constant=True)
    inferrer = train_inferrer(accurate_lorenz, observed=(0, 1), target=2, spec=spec,
                              alpha=1e-6)
    with pytest.raises(ValueError):
        forecast(inferrer, accurate_lorenz, 5)

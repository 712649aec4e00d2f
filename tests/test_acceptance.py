"""Benchmark acceptance suite: one pass/fail line per headline claim.

Run with ``pytest -v tests/test_acceptance.py``. Every test prints the
measured values next to the bound it must meet (visible with ``-s`` or
``-rA``), so a verbose run doubles as the benchmark report.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ngrc import (
    CostParams,
    FeatureSpec,
    TimeSeries,
    TrainingBlock,
    estimate_cost,
    feature_length,
    forecast,
    integrate,
    lorenz63,
    lorenz_uss,
    monomial_exponent_table,
    ridge_fit,
    solve_double_scroll_uss,
    train_forecaster,
    uss_report,
    valid_time,
)
from ngrc.cli import resolve_config, run_experiment
from ngrc.systems import IntegrationConfig
from tests.conftest import N_SEGMENTS, TRAIN_POINTS


@contextmanager
def budget(seconds: float, label: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"{label}: {elapsed:.2f} s (budget {seconds:.0f} s)")
    assert elapsed < seconds, f"{label} took {elapsed:.2f} s, budget {seconds} s"


def run_task(tmp_path, overrides):
    config = resolve_config({**overrides, "out_dir": str(tmp_path / "run")})
    return run_experiment(config)


def test_feature_counts_match_benchmark_setups():
    lorenz = FeatureSpec(d=3, k=2, s=1, degrees=(2,), include_constant=True)
    scroll = FeatureSpec(d=3, k=2, s=1, degrees=(3,), include_constant=False)
    inference = FeatureSpec(d=2, k=4, s=5, degrees=(2,), include_constant=True)
    counts = (feature_length(lorenz), feature_length(scroll), feature_length(inference))
    print(f"feature totals (quadratic / cubic / inference): {counts}")
    assert counts == (28, 62, 45)


def test_ridge_solver_matches_dense_inverse_oracle():
    def dense_inverse_ridge(features, targets, alpha):
        gram = features @ features.T + alpha * np.eye(features.shape[0])
        return targets @ features.T @ np.linalg.inv(gram)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        feature_dim = int(rng.integers(2, 61))
        output_dim = int(rng.integers(1, 6))
        n_samples = int(rng.integers(feature_dim + 5, 200))
        features = rng.normal(size=(feature_dim, n_samples))
        targets = rng.normal(size=(output_dim, n_samples))
        alpha = float(10.0 ** rng.uniform(-9, -1))
        fitted = ridge_fit(TrainingBlock(features, targets), alpha)
        oracle = dense_inverse_ridge(features, targets, alpha)
        worst = max(worst, float(np.abs(fitted.weights - oracle).max()))
    print(f"worst |solver - dense inverse| over 50 instances: {worst:.3e} (< 1e-10)")
    assert worst < 1e-10


def test_monomial_tables_match_exhaustive_enumeration():
    checked = 0
    for n_vars in range(1, 13):
        pairs = [(i, j) for i in range(n_vars) for j in range(i, n_vars)]
        triples = [(i, j, k) for i in range(n_vars) for j in range(i, n_vars)
                   for k in range(j, n_vars)]
        assert [tuple(row) for row in monomial_exponent_table(n_vars, 2)] == pairs
        assert [tuple(row) for row in monomial_exponent_table(n_vars, 3)] == triples
        checked += len(pairs) + len(triples)
    print(f"monomial tables identical to nested loops for d*k <= 12 "
          f"({checked} monomials)")


def test_lorenz_forecast_median_valid_time_exceeds_three_lyapunov_times(lorenz_task):
    assert lorenz_task.model.readout.feature_dim == 28
    with budget(10.0, "10-segment forecast benchmark"):
        valid_times = []
        for j in range(N_SEGMENTS):
            seg_train = lorenz_task.mother.segment(j * TRAIN_POINTS,
                                                   (j + 1) * TRAIN_POINTS)
            seg_model = train_forecaster(seg_train, lorenz_task.spec,
                                         lorenz_task.alpha)
            predicted = forecast(seg_model, seg_train, lorenz_task.n_test)
            truth = lorenz_task.mother.segment(
                (j + 1) * TRAIN_POINTS, (j + 1) * TRAIN_POINTS + lorenz_task.n_test)
            valid_times.append(valid_time(predicted, truth, lorenz_task.scaling,
                                          0.5, lorenz_task.system.lyapunov_time))
        median = float(np.median(valid_times))
    print("valid times (Lyapunov units): "
          + ", ".join(f"{v:.2f}" for v in valid_times))
    print(f"median valid time: {median:.2f} Lyapunov times (>= 3 required)")
    assert median >= 3.0


def test_lorenz_steady_states_recovered_within_two_percent(lorenz_task):
    with budget(30.0, "steady-state benchmark"):
        true_states = lorenz_uss()
        canonical = uss_report(lorenz_task.model, true_states, lorenz_task.scaling)
        per_state: list[list[float]] = [[] for _ in true_states]
        for j in range(N_SEGMENTS):
            report = uss_report(lorenz_task.segment_model(j), true_states,
                                lorenz_task.scaling)
            for slot, entry in zip(per_state, report):
                dist = entry.scaled_distance
                if dist is not None:
                    slot.append(dist)
    for entry, dists in zip(canonical, per_state):
        label = np.round(entry.true_state, 2).tolist()
        print(f"steady state {label}: scaled distance {entry.scaled_distance:.3e} "
              f"(dispersion over {len(dists)} converged segments: "
              f"mean {np.mean(dists):.3e}, std {np.std(dists):.3e})")
        assert entry.scaled_distance is not None
        assert entry.scaled_distance < 2e-2
        assert len(dists) >= 2  # dispersion is a meaningful statistic


def test_double_scroll_steady_states_origin_exact_pair_close(ds_task):
    with budget(30.0, "double-scroll steady-state benchmark"):
        true_states = solve_double_scroll_uss()
        report = uss_report(ds_task.model, true_states, ds_task.scaling)
    distances = [entry.scaled_distance for entry in report]
    print(f"origin scaled distance: {distances[0]:.3e} (< 1e-12)")
    print(f"symmetric pair scaled distances: {distances[1]:.3e}, "
          f"{distances[2]:.3e} (< 2e-2)")
    assert distances[0] is not None and distances[0] < 1e-12
    assert distances[1] is not None and distances[1] < 2e-2
    assert distances[2] is not None and distances[2] < 2e-2


def test_lorenz_return_map_free_run_deviation_below_two_percent(lorenz_task):
    from ngrc import extract_return_map, return_map_deviation

    n_window = 40000  # 1000 time units at dt = 0.025
    with budget(120.0, "1000-unit return-map benchmark"):
        truth_map = extract_return_map(
            lorenz_task.mother.segment(TRAIN_POINTS, TRAIN_POINTS + n_window),
            component=2)
        predicted_map = extract_return_map(
            lorenz_task.predicted.segment(0, n_window), component=2)
        deviation = return_map_deviation(predicted_map, truth_map)
        truth_range = float(truth_map.maxima.max() - truth_map.maxima.min())
        relative = deviation / truth_range
    print(f"return map: {predicted_map.maxima.size} forecast maxima vs "
          f"{truth_map.maxima.size} truth maxima over 1000 time units")
    print(f"directed deviation {deviation:.4f} = {100 * relative:.3f}% of the "
          f"truth range {truth_range:.3f} (< 2% required)")
    assert np.all(np.isfinite(lorenz_task.predicted.values[:n_window]))
    assert relative < 0.02


def test_forecast_error_saturates_with_training_size(tmp_path):
    with budget(300.0, "training-size sweep"):
        summary = run_task(tmp_path, {"task": "sweep-trainsize"})
    means = {int(k): v for k, v in summary["mean_nrmse"].items()}
    for size in sorted(means):
        print(f"train_points {size:5d}: mean NRMSE {means[size]:.3e}")
    ratio = means[400] / means[1000]
    print(f"mean NRMSE at 400 / at 1000: {ratio:.2f} (must be within 1.5x)")
    assert max(ratio, 1.0 / ratio) <= 1.5
    # saturation: every size from 250 up sits within 2x of the converged
    # level, while the smallest size is clearly above it
    for size in (s for s in means if s >= 250):
        assert means[size] <= 2.0 * means[1000], f"no saturation at {size}"
    assert means[100] > 2.0 * means[1000]


def test_noisy_training_reaches_published_error_level(tmp_path):
    with budget(120.0, "noisy-training benchmark"):
        summary = run_task(tmp_path, {"task": "noise-lorenz"})
    median = summary["scaled_rmse_median"]
    published = 1.34e-2
    ratio = median / published
    print("scaled RMSE per repeat: "
          + ", ".join(f"{v:.3e}" for v in summary["scaled_rmse_values"]))
    print(f"median scaled RMSE {median:.3e} vs published {published:.3e} "
          f"(ratio {ratio:.2f}, must be within 5x)")
    assert summary["alpha"] == 1.4e-2
    assert summary["noise_rms"] == 1.0
    assert max(ratio, 1.0 / ratio) <= 5.0


def test_hidden_component_inference_generalizes(tmp_path):
    with budget(10.0, "hidden-component inference"):
        summary = run_task(tmp_path, {"task": "infer-lorenz"})
    print(f"readout shape: {summary['readout_shape']} (must be [1, 45])")
    print(f"train NRMSE {summary['train_nrmse']:.3e}, test NRMSE "
          f"{summary['test_nrmse']:.3e}, ratio {summary['test_to_train_ratio']:.2f} "
          f"(< 2 required)")
    assert summary["readout_shape"] == [1, 45]
    assert summary["test_to_train_ratio"] < 2.0


def test_training_cost_ratio_near_published_value():
    ng = CostParams(m_warmup=2, m_train=400, n_total=28, n_nonlinear=21)
    speedups = []
    for sigma in (0.01, 0.05):
        rc = CostParams(m_warmup=1000, m_train=1000, n_total=100, n_nodes=100,
                        sigma_r=sigma)
        speedups.append(estimate_cost(ng, rc))
    print(f"computed speedups at sigma_r = 0.01, 0.05: "
          f"{speedups[0]:.1f}, {speedups[1]:.1f} (published range 33-163, "
          f"claim ~33 at these settings, tolerance +/-10%)")
    print("other published speedup ranges: intermediate RC 1.5e3, "
          "high-accuracy RC 3.2e6, double-scroll low-connectivity RC 8-41")
    for speedup in speedups:
        assert abs(speedup - 33.0) <= 0.10 * 33.0


# Any warning fails the suite, a LinAlgWarning from an ill-conditioned ridge
# solve included: a fit that warns is not a fit the claims can rest on.
@pytest.mark.filterwarnings("error")
def test_property_suite_symmetry_regularization_determinism_residuals(ds_task,
                                                                      lorenz_task):
    with budget(60.0, "property suite"):
        # odd symmetry: the cubic no-constant model commutes with negation
        # bit-exactly, because IEEE products and sums are sign-symmetric.
        # equal_nan covers rollouts that escape to non-finite values, where
        # the mirrored run escapes at exactly the same step
        warmup = ds_task.train.segment(0, 40)
        mirrored = TimeSeries(dt=warmup.dt, values=-warmup.values, t0=warmup.t0)
        fwd = forecast(ds_task.model, warmup, 200)
        mirror_fwd = forecast(ds_task.model, mirrored, 200)
        assert np.array_equal(mirror_fwd.values, -fwd.values, equal_nan=True)
        print("odd symmetry: forecast(-warmup) == -forecast(warmup) bit-exactly")

        # regularization monotonicity: readout norm shrinks as alpha grows
        norms = []
        for alpha in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
            model = train_forecaster(lorenz_task.train, lorenz_task.spec, alpha)
            norms.append(float(np.linalg.norm(model.readout.weights)))
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        print("regularization: readout norms " +
              " >= ".join(f"{n:.3e}" for n in norms))

        # determinism: identical inputs give bit-identical artifacts
        system = lorenz63()
        config = IntegrationConfig(dt=0.025, t_span=(0.0, 5.0),
                                   initial_state=np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(integrate(system, config).values,
                              integrate(system, config).values)
        again = train_forecaster(lorenz_task.train, lorenz_task.spec,
                                 lorenz_task.alpha)
        assert np.array_equal(again.readout.weights,
                              lorenz_task.model.readout.weights)
        assert np.array_equal(forecast(again, lorenz_task.train, 500).values,
                              lorenz_task.predicted.values[:500])
        print("determinism: reruns are bit-identical")

        # steady-state residuals of both vector fields
        lorenz_residual = max(float(np.abs(system.rhs(s)).max())
                              for s in lorenz_uss())
        ds = ds_task.system
        scroll_residual = max(float(np.abs(ds.rhs(s)).max())
                              for s in solve_double_scroll_uss())
        print(f"steady-state residuals: lorenz {lorenz_residual:.2e}, "
              f"double-scroll {scroll_residual:.2e} (< 1e-8)")
        assert lorenz_residual < 1e-8
        assert scroll_residual < 1e-8

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ngrc.cli
from ngrc import (
    CostParams,
    FeatureSpec,
    IntegrationConfig,
    IntegrationError,
    ReadoutMatrix,
    ReservoirParams,
    SingularSystemError,
    TrainingBlock,
    double_scroll,
    estimate_cost,
    feature_names,
    load_model,
    on_attractor_state,
    ridge_fit,
)
from ngrc.cli import (
    TASKS,
    ConfigError,
    main,
    resolve_config,
    validate_config,
)
from ngrc._checks import NumericalError
from ngrc.systems import transient_config

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def reduced_forecast_config(**overrides):
    doc = {"task": "forecast-lorenz", "train_points": 120, "test_horizon": 1.0,
           "nrmse_horizon": 0.5, "uss_segments": 1, "return_map_window": 0.0}
    doc.update(overrides)
    return doc


def test_every_task_has_defaults():
    # each task has its canonical config, and each config names its own file's task
    configs = {path.stem: json.loads(path.read_text())["task"]
               for path in (ROOT / "configs").glob("*.json")}
    assert set(configs) == set(TASKS)
    assert all(name == task for name, task in configs.items())
    for task, record in TASKS.items():
        config = resolve_config({"task": task})
        assert config.settings == record.defaults
        assert config.seed == 0
        assert config.out_dir == f"runs/{task}"


def test_resolve_config_overrides_and_document_roundtrip():
    config = resolve_config({"task": "forecast-lorenz", "alpha": 1e-3, "k": 3,
                             "seed": 5, "out_dir": "elsewhere"})
    assert config["alpha"] == 1e-3
    assert config["k"] == 3
    assert config.seed == 5
    assert config.out_dir == "elsewhere"
    doc = config.to_document()
    assert "out_dir" not in doc  # output location never affects provenance
    rebuilt = resolve_config(doc)
    assert rebuilt.settings == config.settings
    assert rebuilt.seed == config.seed


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"task": "complexity", "bogus": 1})
    assert any("bogus" in m for m in exc.value.messages)


def test_resolve_config_collects_named_errors():
    with pytest.raises(ConfigError) as exc:
        resolve_config({"task": "forecast-lorenz", "alpha": -1.0, "k": 0,
                        "dt": "fast"})
    messages = "\n".join(exc.value.messages)
    assert "alpha" in messages and "k" in messages and "dt" in messages
    assert len(exc.value.messages) == 3


def test_resolve_config_requires_known_task():
    with pytest.raises(ConfigError, match="missing"):
        resolve_config({})
    with pytest.raises(ConfigError, match="unknown task"):
        resolve_config({"task": "forecast-rossler"})
    with pytest.raises(ConfigError, match="unknown task"):
        resolve_config({"task": ["complexity"]})  # not a name, and it does not hash
    with pytest.raises(ConfigError):
        resolve_config(["task"])


def test_resolve_config_rejects_observed_target_overlap():
    with pytest.raises(ConfigError, match="target"):
        resolve_config({"task": "infer-lorenz", "observed": [0, 2], "target": 2})


def test_resolve_config_type_strictness(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"task": "complexity", "seed": "zero"})
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"task": "noise-lorenz", "seed": -1})
    with pytest.raises(ConfigError, match="degrees"):
        resolve_config({"task": "forecast-lorenz", "degrees": [2, 1]})
    with pytest.raises(ConfigError, match="train_points"):
        resolve_config({"task": "forecast-lorenz", "train_points": True})

    # rules that used to pass validation and then crash the run
    cases = [
        ({"task": "forecast-lorenz", "degrees": [2, 2]}, "degrees"),
        ({"task": "infer-lorenz", "target": 5}, "target"),
        ({"task": "infer-lorenz", "observed": [0, 7]}, "observed"),
        ({"task": "infer-lorenz", "observed": [True, 1]}, "observed"),
        ({"task": "infer-lorenz", "observed": [1, 1]}, "observed"),
        ({"task": "sweep-trainsize", "sizes": [100, 100, 1000]}, "sizes"),
        ({"task": "forecast-lorenz", "transient_time": 0}, "transient_time"),
        ({"task": "forecast-lorenz", "uss_segments": 0}, "uss_segments"),
        # fewer samples than one delay window (plus a target for forecasters)
        ({"task": "forecast-lorenz", "train_points": 2}, "train_points"),
        ({"task": "infer-lorenz", "test_points": 5}, "test_points"),
        ({"task": "noise-lorenz", "train_points": 1}, "train_points"),
        # a return map needs two refined maxima: at least 7 samples
        ({"task": "forecast-lorenz", "return_map_window": 0.01}, "return_map_window"),
        ({"task": "forecast-lorenz", "return_map_window": 0.1}, "return_map_window"),
        ({"task": "forecast-lorenz", "return_map_window": 0.15}, "return_map_window"),
        # ... and a sample count that a float can hold
        ({"task": "forecast-lorenz", "return_map_window": 1e300, "dt": 1e-10},
         "return_map_window"),
        # non-finite numbers (JSON's 1e400 parses as inf) pass every > / >= rule
        ({"task": "forecast-doublescroll", "transient_time": 1e400}, "transient_time"),
        ({"task": "forecast-lorenz", "constant_value": float("inf")}, "constant_value"),
        ({"task": "forecast-lorenz", "dt": 1e400}, "dt: expected a finite number"),
        # a subnormal dt overflows every count of samples per time unit
        ({"task": "forecast-lorenz", "dt": 5e-324}, "dt: must be positive with a finite"),
        ({"task": "noise-lorenz", "dt": 5e-324}, "dt: must be positive with a finite"),
        # ... and so does every horizon, which the runners turn into sample counts
        ({"task": "forecast-lorenz", "test_horizon": 1e308}, "test_horizon"),
        ({"task": "forecast-lorenz", "nrmse_horizon": 1e308}, "nrmse_horizon"),
        ({"task": "sweep-trainsize", "nrmse_horizon": 1e308}, "nrmse_horizon"),
        ({"task": "noise-lorenz", "rmse_horizon": 1e308}, "rmse_horizon"),
        # a dt too long for the span of the samples that the run integrates
        *(({"task": task, "dt": 1e306}, "dt: .* must span a finite time")
          for task in ("forecast-doublescroll", "infer-lorenz", "sweep-trainsize",
                       "noise-lorenz", "baseline-rc")),
        ({"task": "sweep-trainsize", "dt": 1e304}, "dt: 20021 samples"),
    ]
    for i, (doc, field) in enumerate(cases):
        with pytest.raises(ConfigError, match=field):
            resolve_config(doc)
        assert main(["validate", write_config(tmp_path, doc, f"bad{i}.json")]) == 2


@pytest.mark.parametrize("task", TASKS)
def test_canonical_configs_resolve_to_tracked_provenance(task):
    path = ROOT / "configs" / f"{task}.json"
    tracked = json.loads((ROOT / "runs" / task / "resolved-config.json").read_text())
    assert resolve_config(json.loads(path.read_text())).to_document() == tracked
    assert main(["validate", str(path), "--quiet"]) == 0


@pytest.mark.parametrize("task", ["forecast-lorenz", "forecast-doublescroll", "infer-lorenz"])
def test_tracked_readout_labels_match_feature_layout(task):
    # every ranked (output, feature, weight) entry of a tracked run must sit
    # at the column that the current feature_names gives its label
    model = load_model(ROOT / "runs" / task / "model.json")
    summary = json.loads((ROOT / "runs" / task / "summary.json").read_text())
    components = TASKS[task].system().components
    names = feature_names(model.spec, [components[i] for i in model.input_indices])
    weights = model.readout.weights
    assert len(summary["readout_ranked"]) == weights.size
    for e in summary["readout_ranked"]:
        assert weights[e["output"], names.index(e["feature"])] == e["weight"]


def test_validate_config_file_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cannot read"):
        validate_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"task": "complexity", "out_dir": "caf\xe9"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config(latin1)
    too_long = tmp_path / "too-long.json"  # more digits than Python reads as an int
    too_long.write_text('{"task": "complexity", "seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config(too_long)
    for path in (tmp_path / "missing.json", bad, latin1, too_long, tmp_path):
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_main_validate_subcommand(tmp_path, capsys):
    good = write_config(tmp_path, {"task": "complexity"})
    assert main(["validate", good]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["task"] == "complexity"

    bad = write_config(tmp_path, {"task": "complexity", "oops": 1}, "bad.json")
    assert main(["validate", bad]) == 2
    assert "oops" in capsys.readouterr().err


def test_main_run_complexity_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(ROOT / "configs" / "complexity.json"), "--out", str(out)]) == 0
    capsys.readouterr()

    tracked = ROOT / "runs" / "complexity" / "summary.json"
    assert (out / "summary.json").read_bytes() == tracked.read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved == {"task": "complexity", "seed": 0}
    for table in summary["tables"]:
        ng = CostParams(m_warmup=table["ngrc"]["m_warmup"],
                        m_train=table["ngrc"]["m_train"],
                        n_total=table["ngrc"]["n_total"],
                        n_nonlinear=table["ngrc"]["n_nonlinear"])
        for row in table["rows"]:
            for sigma, speedup in zip(row["sigma_r"], row["computed_speedup"]):
                rc = CostParams(m_warmup=row["m_warmup"], m_train=row["m_train"],
                                n_total=row["n_total"], n_nodes=row["n_nodes"],
                                sigma_r=sigma)
                assert speedup == estimate_cost(ng, rc)


@pytest.mark.filterwarnings("error")  # a new overflow on the way fails here
@pytest.mark.parametrize("task", ["forecast-lorenz", "forecast-doublescroll", "baseline-rc",
                                  "sweep-trainsize", "noise-lorenz", "infer-lorenz"])
def test_canonical_runs_reproduce_tracked_outputs_byte_for_byte(task, canonical_run):
    # every canonical task but complexity, which
    # test_main_run_complexity_writes_artifacts pins
    assert_matches_tracked_run(task, canonical_run(task).out)


def assert_matches_tracked_run(task, out):
    """Every tracked file of the task's canonical run comes out again, byte for byte."""
    tracked = sorted((ROOT / "runs" / task).iterdir())
    assert sorted(p.name for p in out.iterdir()) == [p.name for p in tracked]
    for path in tracked:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def subprocess_env(**variables):
    """This environment with ngrc's sources importable, plus ``variables``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **variables}


_RUN_CANONICAL = """
import sys
from ngrc.cli import main
out, tasks = sys.argv[1], sys.argv[2:]
sys.exit(any(main(["run", f"configs/{task}.json", "--out", f"{out}/{task}", "--quiet"])
             for task in tasks))
"""


@pytest.mark.parametrize("tasks", [
    ("forecast-doublescroll", "noise-lorenz"),
    pytest.param(("baseline-rc",), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP (platform independence: the ridge solve): "
               "baseline-rc's train_nrmse moves in the 14th digit")),
])
def test_canonical_runs_are_byte_identical_at_one_blas_thread(tasks, tmp_path):
    # OpenBLAS reads its thread count when numpy loads, hence the subprocess
    subprocess.run([sys.executable, "-c", _RUN_CANONICAL, str(tmp_path), *tasks], cwd=ROOT,
                   env=subprocess_env(OPENBLAS_NUM_THREADS="1"), check=True, timeout=300)
    for task in tasks:
        assert_matches_tracked_run(task, tmp_path / task)


def test_main_run_small_baseline(tmp_path):
    config = write_config(tmp_path, {"task": "baseline-rc", "n_nodes": 50,
                                     "sigma_r": 0.2, "train_points": 150,
                                     "warmup_points": 30})
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["finite"] is True
    assert summary["train_nrmse"] < 1.0


def test_main_run_is_bit_reproducible(tmp_path):
    config = write_config(tmp_path, reduced_forecast_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", config, "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", config, "--out", str(out_b), "--quiet"]) == 0
    for name in ("summary.json", "forecast.csv", "train.csv", "model.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # the emitted resolved config reproduces the run exactly
    out_c = tmp_path / "c"
    rc = main(["run", str(out_a / "resolved-config.json"), "--out", str(out_c),
               "--quiet"])
    assert rc == 0
    assert (out_a / "summary.json").read_bytes() == (out_c / "summary.json").read_bytes()
    assert (out_a / "forecast.csv").read_bytes() == (out_c / "forecast.csv").read_bytes()


def test_main_seed_override_lands_in_provenance(tmp_path):
    config = write_config(tmp_path, {"task": "complexity"})
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--seed", "7", "--quiet"]) == 0
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["seed"] == 7


def test_main_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing, "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err

    bad_value = write_config(tmp_path, {"task": "forecast-lorenz", "alpha": -2.0},
                             "bad.json")
    assert main(["run", bad_value, "--quiet"]) == 2
    assert "alpha" in capsys.readouterr().err

    # 20 training points cannot support 28 features at alpha = 0
    singular = write_config(
        tmp_path, reduced_forecast_config(alpha=0.0, train_points=20), "singular.json")
    assert main(["run", singular, "--out", str(tmp_path / "s"), "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_out_dir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    existing = tmp_path / "existing"
    existing.write_text("not a directory")
    config = write_config(tmp_path, {"task": "complexity", "out_dir": str(existing)})
    message = f"config error: out_dir: {existing} exists and is not a directory"
    for argv in (["validate", config], ["run", config],
                 ["run", str(ROOT / "configs" / "complexity.json"), "--out", str(existing)]):
        assert main(argv + ["--quiet"]) == 2
        assert capsys.readouterr().err.strip() == message
    assert existing.read_text() == "not a directory"


def test_out_dir_that_cannot_be_created_is_reported_without_traceback(tmp_path, capsys,
                                                                     monkeypatch):
    existing = tmp_path / "existing"
    existing.write_text("not a directory")
    below_a_file = existing / "deeper" / "out"
    config = write_config(tmp_path, {"task": "complexity", "out_dir": str(below_a_file)})
    message = f"config error: out_dir: {existing} exists and is not a directory\n"
    for argv in (["validate", config], ["run", config],
                 ["run", str(ROOT / "configs" / "complexity.json"), "--out", str(below_a_file)]):
        assert main(argv + ["--quiet"]) == 2
        assert capsys.readouterr().err == message
    assert existing.read_text() == "not a directory"

    # a directory that validation cannot foresee failing
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    out = tmp_path / "out"
    monkeypatch.setattr(Path, "mkdir", refuse)
    assert main(["run", config, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: cannot create {out}: Permission denied\n"


def test_main_report_subcommand(tmp_path, capsys):
    config = write_config(tmp_path, {"task": "complexity"})
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "complexity" in printed and "speedup" in printed

    assert main(["report", str(tmp_path / "never-ran")]) == 2
    assert "summary.json" in capsys.readouterr().err
    # a summary names a known task, a list as the task would not even hash,
    # and it holds every key that the task's headline reads
    for i, (contents, missing) in enumerate([
            ("{truncated", ""), ("[1, 2]", ""), (None, ""), ("{}", ""),
            ('{"task": "nope"}', ""), ('{"task": ["complexity"]}', ""),
            ('{"task": "complexity"}', "'tables'"), ('{"task": "forecast-lorenz"}', "'uss'"),
            ('{"task": "sweep-trainsize", "sizes": [100]}', "'mean_nrmse'"),
            # every key present, of the wrong JSON type
            ('{"task": "sweep-trainsize", "sizes": 5}', "not iterable"),
            ('{"task": "forecast-lorenz", "uss": 5}', "not iterable"),
            ('{"task": "complexity", "tables": []}', "index out of range"),
            ('{"task": "noise-lorenz", "scaled_rmse_median": "low", "repeats": 10}', "format"),
            ('{"task": "noise-lorenz", "scaled_rmse_median": 1%s, "repeats": 10}' % ("0" * 400),
             "too large"),
            ('{"task": "complexity", "tables": 1%s}' % ("0" * 5000), "cannot read")]):
        broken = tmp_path / f"broken{i}"
        if contents is None:
            (broken / "summary.json").mkdir(parents=True)
        else:
            broken.mkdir()
            (broken / "summary.json").write_text(contents)
        assert main(["report", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err and "Traceback" not in err


@pytest.mark.parametrize("task", TASKS)
def test_report_prints_the_headline_of_the_task_record(task, capsys):
    # the reproduce script prints the same record's headline for the same summary
    run = ROOT / "runs" / task
    summary = json.loads((run / "summary.json").read_text())
    assert main(["report", str(run)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [f"task: {task}",
                                                        TASKS[task].headline(summary)]


@pytest.mark.parametrize("doc, headline", [
    # sizes other than the canonical ones
    ({"task": "sweep-trainsize", "sizes": [60, 50], "segments": 2},
     r"mean NRMSE at 50/60 points: \S+ / \S+"),
    # too few training points for any steady state to converge
    ({"task": "forecast-lorenz", "train_points": 5, "uss_segments": 1,
      "return_map_window": 0.0}, r"valid_time .*, no steady state converged"),
], ids=["other-sizes", "no-steady-state"])
def test_report_headline_holds_for_every_valid_config(doc, headline, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", write_config(tmp_path, doc), "--out", out, "--quiet"]) == 0
    assert main(["report", out]) == 0
    assert re.fullmatch(headline, capsys.readouterr().out.splitlines()[1])


def test_run_forecast_summary_is_finite_and_complete(tmp_path):
    config = write_config(tmp_path, reduced_forecast_config())
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feature_dim"] == 28
    assert summary["readout_shape"] == [3, 28]
    assert np.isfinite(summary["train_nrmse"])
    assert summary["valid_times"] and len(summary["valid_times"]) == 1
    assert len(summary["uss"]) == 3
    ranked = summary["readout_ranked"]
    assert ranked and all({"feature", "weight", "output"} <= set(r) for r in ranked)
    magnitudes = [abs(r["weight"]) for r in ranked]
    assert magnitudes == sorted(magnitudes, reverse=True)


def test_run_forecast_segments_share_one_loop(tmp_path):
    config = write_config(tmp_path, reduced_forecast_config(uss_segments=3))
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["valid_times"]) == 3
    assert summary["valid_times"][0] == summary["valid_time_lyapunov"]
    assert all(entry["segments_converged"] <= 3 for entry in summary["uss"])


def test_main_reports_data_dependent_failures_as_numerical(tmp_path, capsys):
    # a diverged forecast has no maxima for the return map; a two-node
    # reservoir with one link is nilpotent and cannot be rescaled
    cases = [
        ({"task": "forecast-lorenz", "dt": 0.1, "train_points": 120, "uss_segments": 1},
         "return map"),
        ({"task": "baseline-rc", "n_nodes": 2, "sigma_r": 0.25, "seed": 1},
         "reservoir run"),
    ]
    for i, (doc, stage) in enumerate(cases):
        config = write_config(tmp_path, doc, f"case{i}.json")
        assert main(["run", config, "--out", str(tmp_path / str(i)), "--quiet"]) == 3
        assert f"stage '{stage}'" in capsys.readouterr().err


def _runner_raising(error):
    def runner(config):
        with ngrc.cli._stage("failing stage"):
            raise error
    return runner


def test_main_reports_only_numerical_errors_as_numerical_failure(tmp_path, capsys,
                                                                 monkeypatch):
    config = write_config(tmp_path, {"task": "complexity"})
    out = str(tmp_path / "out")
    complexity = TASKS["complexity"]
    monkeypatch.setitem(TASKS, "complexity", dataclasses.replace(
        complexity, runner=_runner_raising(IntegrationError("step size underflow"))))
    assert main(["run", config, "--out", out, "--quiet"]) == 3
    assert "failing stage" in capsys.readouterr().err

    # the type decides, inside a stage or not
    def runner(config):
        raise SingularSystemError("not positive definite")
    monkeypatch.setitem(TASKS, "complexity", dataclasses.replace(complexity, runner=runner))
    assert main(["run", config, "--out", out, "--quiet"]) == 3
    assert capsys.readouterr().err == "numerical failure: not positive definite\n"

    # a programming error is not a numerical failure: it propagates as is
    for error in (TypeError("bad call"), KeyError("missing")):
        monkeypatch.setitem(TASKS, "complexity",
                            dataclasses.replace(complexity, runner=_runner_raising(error)))
        with pytest.raises(type(error)):
            main(["run", config, "--out", out, "--quiet"])


def test_every_library_error_is_a_rejected_input_or_a_numerical_error():
    # a rejected input is a ValueError (validate reports ConfigErrors, exit 2)
    # and a failed computation a NumericalError (exit 3); main reads the type
    modules = [importlib.import_module(f"ngrc.{info.name}")
               for info in pkgutil.iter_modules(ngrc.__path__)]
    errors = [cls for module in [ngrc, *modules] for cls in vars(module).values()
              if inspect.isclass(cls) and issubclass(cls, BaseException)
              and cls.__module__ == module.__name__]
    assert {cls.__name__ for cls in errors} >= {"ConfigError", "NumericalError",
                                                "IntegrationError", "WarmupError"}
    for cls in errors:
        assert issubclass(cls, (ValueError, NumericalError)), cls


def test_main_rejects_negative_seed_override(tmp_path, capsys):
    config = write_config(tmp_path, {"task": "noise-lorenz"})
    assert main(["run", config, "--seed", "-1", "--quiet"]) == 2
    assert "seed" in capsys.readouterr().err


def test_noise_seeds_draw_independent_noise(tmp_path):
    # no repeat of one base seed may reuse the noise of another base seed's
    # repeat (``seed ^ rep`` made seeds 0 and 1 swap their first two repeats)
    values = []
    for seed in (0, 1):
        config = resolve_config({"task": "noise-lorenz", "repeats": 4, "seed": seed,
                                 "out_dir": str(tmp_path / str(seed))})
        values.append(ngrc.cli.run_experiment(config)["scaled_rmse_values"])
    assert len(set(values[0]) | set(values[1])) == 8


def test_main_reports_a_diverging_noisy_ensemble_as_numerical(tmp_path, capsys):
    # forcing of RMS 1e3 per unit time blows the Heun paths up within a few
    # samples; the loose tolerance only shortens the ground truth's integration
    doc = {"task": "noise-lorenz", "noise_rms": 1e3, "repeats": 2, "rtol": 1e-3, "atol": 1e-6}
    config = write_config(tmp_path, doc)
    assert main(["validate", config, "--quiet"]) == 0
    # the overflow on the way is the failure being reported, not a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == ("numerical failure: stage 'noisy training and forecast': "
                   "noisy path 1 of lorenz63 is not finite at t = 0.35\n")


def test_main_reports_an_overflowing_reservoir_as_numerical(tmp_path, capsys):
    # a linear reservoir of spectral radius 5 grows about fivefold per sample
    # and overflows within the 501 samples of the canonical run
    config = write_config(tmp_path, {"task": "baseline-rc", "spectral_radius": 5.0})
    assert main(["validate", config, "--quiet"]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert re.fullmatch(r"numerical failure: stage 'reservoir run': reservoir state is "
                        r"not finite at step \d+\n", capsys.readouterr().err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("train_points, cause", [
    (150, "normal equations overflow"),  # finite squares, but their Gram matrix overflows
    (350, "squared reservoir state is not finite at column"),
])
def test_main_reports_an_overflowing_readout_as_numerical(tmp_path, capsys, train_points,
                                                          cause):
    config = write_config(tmp_path, {"task": "baseline-rc", "spectral_radius": 5.0,
                                     "warmup_points": 30, "train_points": train_points})
    assert main(["validate", config, "--quiet"]) == 0
    assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        f"numerical failure: stage 'train readout': {cause}")


def integration_config(dt=0.025, **kw):
    """A noisy run's IntegrationConfig over two samples, as validation builds it."""
    return IntegrationConfig(dt=dt, t_span=(0.0, dt), initial_state=np.ones(3), seed=0, **kw)


# Each library-owned key, the task whose defaults it is checked against and
# the library object its runner builds from it, with valid stand-ins for the
# data the runner has.
_LIBRARY_KEYS = {
    "k": ("forecast-lorenz", lambda v: FeatureSpec(d=3, k=v, degrees=(2,))),
    "s": ("forecast-lorenz", lambda v: FeatureSpec(d=3, k=2, s=v, degrees=(2,))),
    "degrees": ("forecast-lorenz", lambda v: FeatureSpec(d=3, k=2, degrees=tuple(v))),
    "constant_value": ("forecast-lorenz",
                       lambda v: FeatureSpec(d=3, k=2, degrees=(2,), constant_value=v)),
    "alpha": ("forecast-lorenz", lambda v: ridge_fit(TrainingBlock(np.eye(2), np.eye(2)), v)),
    "transient_time": ("forecast-doublescroll",
                       lambda v: transient_config(double_scroll(), v, 1e-3, 1e-6, "RK23")),
    **{key: ("noise-lorenz", lambda v, key=key: integration_config(**{key: v}))
       for key in ("dt", "rtol", "atol", "noise_rms", "substeps")},
    **{key: ("baseline-rc", lambda v, key=key: ReservoirParams(**{"n_nodes": 10, key: v}))
       for key in ("n_nodes", "gamma", "spectral_radius", "sigma_r", "input_scale", "bias",
                   "activation")},
}
_BAD_VALUES = [-1, 0, 1, 2, -0.0, 0.5, 1.5, 2.5, 1e-300, 5e-324, 1e300, "tanh", "relu",
               [], [1], [2], [2, 2], [2, 3]]


def test_validate_rejects_exactly_what_the_library_rejects(tmp_path):
    cases = 0
    for key, (task, build) in _LIBRARY_KEYS.items():
        for value in _BAD_VALUES:
            if not ngrc.cli._has_type(value, TASKS[task].defaults[key]):
                continue  # a JSON type error, which only the CLI can see
            try:
                build(value)
            except ValueError:
                runs = False
            else:
                # dt alone keeps a rule of the CLI's: its horizon arithmetic
                # needs a finite number of samples per time unit
                runs = not (key == "dt" and value > 0 and 1 / value == float("inf"))
            config = write_config(tmp_path, {"task": task, key: value}, f"{cases}.json")
            assert (main(["validate", config, "--quiet"]) == 0) == runs, (key, value)
            cases += 1
    assert cases > 100
    # two bad fields of one object are both reported, each by name
    with pytest.raises(ConfigError) as exc:
        resolve_config({"task": "forecast-lorenz", "rtol": -1, "atol": -1})
    assert len(exc.value.messages) == 2
    assert "rtol" in exc.value.messages[0] and "atol" in exc.value.messages[1]


def test_cli_rules_leave_library_parameters_to_the_library():
    # A library parameter's value rules live in its constructor, which
    # validate builds; a copy in cli._RULES would drift from it. dt keeps a
    # CLI rule, for the CLI's own horizon and window arithmetic (see above),
    # and seed is the CLI's base seed of every task, not one object's field.
    library = {field.name for cls in (FeatureSpec, IntegrationConfig, ReservoirParams,
                                      ReadoutMatrix)
               for field in dataclasses.fields(cls)}
    library |= set(inspect.signature(on_attractor_state).parameters)
    assert set(ngrc.cli._RULES) & library == {"dt", "seed"}


def test_transient_time_must_hold_one_transient_step(tmp_path):
    # the transient is sampled only at its end, so any positive time runs
    doc = {"task": "forecast-doublescroll", "transient_time": 0.004}
    assert main(["validate", write_config(tmp_path, doc), "--quiet"]) == 0
    # validation accepts exactly the transients that on_attractor_state runs
    system = double_scroll()
    for transient in (0, -1, 0.004, 0.005, 0.0051, 0.01, 0.1, float("inf")):
        try:
            on_attractor_state(system, transient)
        except ValueError:
            runs = False
        else:
            runs = True
        try:
            resolve_config({**doc, "transient_time": transient})
        except ConfigError:
            accepted = False
        else:
            accepted = True
        assert accepted == runs, transient


def test_importing_the_cli_loads_no_integrate_or_optimize():
    # ngrc runs on numpy alone: its integrators, ridge solve and root
    # bisection are its own, and importing scipy would cost every run set-up
    # time and memory. The double-scroll steady state once loaded it lazily.
    code = ("import sys, ngrc, ngrc.cli; ngrc.solve_double_scroll_uss(); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"

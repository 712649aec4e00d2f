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
    SingularSystemError,
    TimeSeries,
    TrainingBlock,
    double_scroll,
    estimate_cost,
    feature_length,
    feature_names,
    forecast,
    load_model,
    on_attractor_state,
    ridge_fit,
    train_inferrer,
    valid_time,
)
from ngrc.cli import (
    TASKS,
    ConfigError,
    main,
    resolve_config,
    validate_config,
)
from ngrc._checks import NumericalError, count
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
        assert config.out_dir == f"runs/{task}"


class _ReadRecorder(dict):
    """A config's settings that note each key a run reads."""

    def __init__(self, settings):
        super().__init__(settings)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# Each task's config shrunk to run in a fraction of a second; every key keeps
# its role.
_REDUCED = {
    "forecast-lorenz": reduced_forecast_config(return_map_window=5.0),
    "forecast-doublescroll": reduced_forecast_config(task="forecast-doublescroll"),
    "infer-lorenz": {"task": "infer-lorenz", "train_points": 60, "test_points": 60,
                     "transient_time": 5.0},
    "sweep-trainsize": {"task": "sweep-trainsize", "sizes": [20, 30], "segments": 2},
    "noise-lorenz": {"task": "noise-lorenz", "train_points": 60, "repeats": 2,
                     "rtol": 1e-6, "atol": 1e-8},
    "complexity": {"task": "complexity"},
}


@pytest.mark.parametrize("task", TASKS)
def test_every_resolved_key_is_read_by_its_run(task, tmp_path):
    # a key that a task accepts but never reads would look configurable and do
    # nothing, as a seed of a task without noise once did
    config = resolve_config({**_REDUCED[task], "out_dir": str(tmp_path)})
    settings = _ReadRecorder(config.settings)
    ngrc.cli.run_experiment(dataclasses.replace(config, settings=settings))
    resolved = json.loads((tmp_path / "resolved-config.json").read_text())
    assert set(resolved) - {"task"} <= settings.read
    # the keys that a too long ground truth's config error may name are the
    # keys that its length is read from
    record = TASKS[task]
    if record.system is not None:
        settings = _ReadRecorder(config.settings)
        record.truth_samples(dataclasses.replace(config, settings=settings), record.system())
        assert settings.read == set(record.truth_keys)


def test_resolve_config_overrides_and_document_roundtrip():
    config = resolve_config({"task": "noise-lorenz", "alpha": 1e-3, "k": 3,
                             "seed": 5, "out_dir": "elsewhere"})
    assert config["alpha"] == 1e-3
    assert config["k"] == 3
    assert config["seed"] == 5
    assert config.out_dir == "elsewhere"
    doc = config.to_document()
    assert "out_dir" not in doc  # output location never affects provenance
    rebuilt = resolve_config(doc)
    assert rebuilt.settings == config.settings


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
        resolve_config({"task": "noise-lorenz", "seed": "zero"})
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
        # the constant feature is 1; a config written when it was a key is refused
        ({"task": "forecast-lorenz", "constant_value": 1.0},
         "^constant_value: unknown key for task forecast-lorenz$"),
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
                       "noise-lorenz")),
        ({"task": "sweep-trainsize", "dt": 1e304}, "dt: 20021 samples"),
        # a count times dt is a time span, so each count must be exact in a float
        *(({"task": task, key: 10**400}, key)
          for task, key in (("forecast-lorenz", "train_points"), ("infer-lorenz", "test_points"),
                            ("forecast-doublescroll", "uss_segments"),
                            ("sweep-trainsize", "segments"), ("noise-lorenz", "repeats"))),
        ({"task": "sweep-trainsize", "sizes": [100, 10**400]}, "sizes"),
        ({"task": "noise-lorenz", "substeps": 10**400}, "substeps"),
        ({"task": "forecast-lorenz", "train_points": 10**200, "uss_segments": 10**200},
         "train_points"),
        # ... and the ground truth must fit in memory: the error names the keys
        # that set its length, and not the default dt
        ({"task": "sweep-trainsize", "nrmse_horizon": 1e300},
         r"^nrmse_horizon: the ground truth must hold at most 10,000,000 samples"),
        ({"task": "sweep-trainsize", "segments": 2**50, "nrmse_horizon": 1e300},
         r"^segments, nrmse_horizon: the ground truth must hold at most 10,000,000 samples "
         r"of dt=0.025$"),
        ({"task": "forecast-lorenz", "dt": 1e-6}, "^dt: the ground truth must hold at most"),
        # the NRMSE is scored inside the test window, not past it
        ({"task": "forecast-lorenz", "test_horizon": 1.0, "nrmse_horizon": 3.0},
         "nrmse_horizon: must not exceed test_horizon"),
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
    assert resolved == {"task": "complexity"}
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
@pytest.mark.parametrize("task", ["forecast-lorenz", "forecast-doublescroll",
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


# Each windowed task's spread block, the summary key that it replaces, and the
# per-window values of that key.
_SPREAD_BLOCKS = {
    "forecast-lorenz": ("valid_time_spread", "valid_time_median", "valid_times"),
    "forecast-doublescroll": ("valid_time_spread", "valid_time_median", "valid_times"),
    "noise-lorenz": ("scaled_rmse_spread", "scaled_rmse_median", "scaled_rmse_values"),
}


@pytest.mark.parametrize("task", [*_SPREAD_BLOCKS, "sweep-trainsize"])
def test_spread_blocks_hold_the_values_that_the_summary_reports(task, canonical_run):
    run = canonical_run(task)
    summary = run.summary
    if task == "sweep-trainsize":
        table = np.loadtxt(run.out / "sweep.csv", delimiter=",", ndmin=2)
        blocks = list(summary["nrmse_spread"].values())
        assert list(summary["nrmse_spread"]) == [str(size) for size in summary["sizes"]]
        for row, block, size in zip(table, blocks, summary["sizes"]):
            assert block["mean"] == summary["mean_nrmse"][str(size)]
            assert block["std"] == summary["std_nrmse"][str(size)]
            columns = [block[key] for key in ("mean", "std", "median", "min", "max")]
            assert list(row) == [size, *columns]
    else:
        key, median_key, values = _SPREAD_BLOCKS[task]
        blocks = [summary[key]]
        assert blocks[0]["median"] == summary[median_key] == np.median(summary[values])
    for block in blocks:
        assert list(block) == ["mean", "std", "median", "q1", "q3", "min", "max", "nonfinite"]
        assert block["q1"] <= block["median"] <= block["q3"]
        assert block["nonfinite"] == 0


def test_spread_counts_nonfinite_scores():
    spread = ngrc.cli._spread([1.0, np.inf, np.nan, 2.0])
    assert spread["nonfinite"] == 2
    assert ngrc.cli._spread([3.0, 1.0, 2.0, 4.0]) == {
        "mean": 2.5, "std": np.std([1, 2, 3, 4]), "median": 2.5, "q1": 1.75, "q3": 3.25,
        "min": 1.0, "max": 4.0, "nonfinite": 0}


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


def test_canonical_runs_are_byte_identical_at_one_blas_thread(tmp_path):
    # every canonical config, in one subprocess, since OpenBLAS reads its
    # thread count when numpy loads
    subprocess.run([sys.executable, "-c", _RUN_CANONICAL, str(tmp_path), *TASKS], cwd=ROOT,
                   env=subprocess_env(OPENBLAS_NUM_THREADS="1"), check=True, timeout=300)
    for task in TASKS:
        assert_matches_tracked_run(task, tmp_path / task)


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


def test_main_seed_override_lands_in_provenance(tmp_path, capsys):
    config = write_config(tmp_path, {"task": "noise-lorenz", "repeats": 1, "rtol": 1e-3,
                                     "atol": 1e-6})
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--seed", "7", "--quiet"]) == 0
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["seed"] == 7
    # the noisy training is the one random input; no other task takes a seed
    forecast_config = str(ROOT / "configs" / "forecast-lorenz.json")
    assert main(["run", forecast_config, "--seed", "3", "--quiet"]) == 2
    assert capsys.readouterr().err == ("config error: seed: unknown key for task "
                                       "forecast-lorenz\n")


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
            # a task that this version no longer has
            ('{"task": "baseline-rc"}', "holds a summary of unknown task 'baseline-rc'"),
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
    assert summary["first_nonfinite_steps"] == [None] and summary["diverged_segments"] == 0
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


def test_run_forecast_reports_the_first_nonfinite_step_of_each_rollout(tmp_path, capsys,
                                                                        monkeypatch):
    # segment 1's rollout overflows in one component from step 7 on
    rollouts = []

    def forecast_overflowing_second(model, train, n_steps):
        predicted = forecast(model, train, n_steps)
        rollouts.append(predicted)
        if len(rollouts) != 2:
            return predicted
        values = predicted.values.copy()
        values[7:, 1] = np.inf
        return TimeSeries(predicted.dt, values, predicted.t0)

    monkeypatch.setattr(ngrc.cli, "forecast", forecast_overflowing_second)
    config = write_config(tmp_path, reduced_forecast_config(uss_segments=3))
    out = tmp_path / "out"
    assert main(["run", config, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["first_nonfinite_steps"] == [None, 7, None]
    assert summary["diverged_segments"] == 1
    assert main(["report", str(out)]) == 0
    assert "  diverged_segments: 1" in capsys.readouterr().out.splitlines()


def test_main_reports_data_dependent_failures_as_numerical(tmp_path, capsys):
    # a diverged forecast has no maxima for the return map
    doc = {"task": "forecast-lorenz", "dt": 0.1, "train_points": 120, "uss_segments": 1}
    config = write_config(tmp_path, doc)
    assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert "stage 'return map'" in capsys.readouterr().err


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
    assert err == ("numerical failure: stage 'integrate noisy ensemble': "
                   "noisy path 1 of lorenz63 is not finite at t = 0.35\n")


@pytest.mark.filterwarnings("error")
def test_main_reports_an_overflowing_readout_as_numerical(tmp_path, capsys, monkeypatch):
    # finite training data whose products in the Gram matrix overflow; every
    # runner fits through the one window routine, under the one stage 'train'
    fit = ngrc.cli.train_forecaster
    monkeypatch.setattr(ngrc.cli, "train_forecaster", lambda series, spec, alpha: fit(
        TimeSeries(series.dt, series.values * 1e80, series.t0), spec, alpha))
    for task in ("forecast-lorenz", "sweep-trainsize", "noise-lorenz"):
        config = write_config(tmp_path, {"task": task}, f"{task}.json")
        assert main(["validate", config, "--quiet"]) == 0
        assert main(["run", config, "--out", str(tmp_path / task), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stage 'train': normal equations overflow")
        assert err.count("stage '") == 1, task


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
    "alpha": ("forecast-lorenz", lambda v: ridge_fit(TrainingBlock(np.eye(2), np.eye(2)), v)),
    "transient_time": ("forecast-doublescroll",
                       lambda v: transient_config(double_scroll(), v, 1e-3, 1e-6, "RK23")),
    **{key: ("noise-lorenz", lambda v, key=key: integration_config(**{key: v}))
       for key in ("dt", "rtol", "atol", "noise_rms", "substeps")},
}
_BAD_VALUES = [-1, 0, 1, 2, -0.0, 0.5, 1.5, 2.5, 1e-300, 5e-324, 1e300,
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
    assert cases == 83
    # two bad fields of one object are both reported, each by name
    with pytest.raises(ConfigError) as exc:
        resolve_config({"task": "forecast-lorenz", "rtol": -1, "atol": -1})
    assert len(exc.value.messages) == 2
    assert "rtol" in exc.value.messages[0] and "atol" in exc.value.messages[1]


def test_feature_keys_are_the_fields_of_the_spec():
    # d comes from the system or the observed components; every other field
    # of the spec is a feature key, and no feature key is anything else
    fields = {field.name for field in dataclasses.fields(FeatureSpec)}
    assert set(ngrc.cli._FEATURE_KEYS) == fields - {"d"}


def test_validate_caps_the_fit_at_its_feature_block_and_gram_matrix(tmp_path, capsys):
    # validate only: each of these would allocate gigabytes in its run
    cases = [
        # 53,137 features: a Gram matrix of 21 GiB
        ({"task": "forecast-lorenz", "degrees": [20]}, "degrees"),
        # 62 features of 9,000,000 samples: a feature block of 4.2 GiB
        ({"task": "forecast-doublescroll", "uss_segments": 1, "train_points": 9000000},
         "train_points"),
        ({"task": "infer-lorenz", "k": 200, "s": 1}, "k"),
        ({"task": "sweep-trainsize", "k": 4, "degrees": [2, 3, 4], "segments": 1,
          "sizes": [100, 30000]}, "k, degrees, sizes"),
        # counted without the binomial of a huge degree
        ({"task": "noise-lorenz", "degrees": [2, 10**400]}, "degrees"),
    ]
    for i, (doc, keys) in enumerate(cases):
        assert main(["validate", write_config(tmp_path, doc, f"{i}.json"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"config error: {keys}: the fit's feature block and Gram matrix must hold "
            "at most 40,000,000 entries\n")
    # the count by formula is the layout's count
    for task, record in TASKS.items():
        if "degrees" in record.defaults:
            d = len(record.defaults.get("observed", ())) or record.system().dim
            spec = resolve_config({"task": task}).feature_spec(d)
            assert ngrc.cli._feature_count(spec, 6324) == feature_length(spec)


def test_cli_rules_leave_library_parameters_to_the_library():
    # A library parameter's value rules live in its constructor, which
    # validate builds; a copy in cli._RULES would drift from it. dt keeps a
    # CLI rule, for the CLI's own horizon and window arithmetic (see above).
    library = {field.name for cls in (FeatureSpec, IntegrationConfig, ReadoutMatrix)
               for field in dataclasses.fields(cls)}
    library |= set(inspect.signature(on_attractor_state).parameters)
    library |= set(inspect.signature(train_inferrer).parameters)
    library |= set(inspect.signature(valid_time).parameters)
    assert set(ngrc.cli._RULES) & library == {"dt"}
    # valid_time's threshold rule, which validate calls
    with pytest.raises(ConfigError) as caught:
        resolve_config({"task": "forecast-lorenz", "threshold": -0.5})
    assert caught.value.messages == ["threshold must be nonnegative and finite, got -0.5"]


def test_validate_accepts_exactly_the_components_that_train_inferrer_accepts(tmp_path):
    # the inferrer's components are checked by one library checker, which
    # validate calls; JSON types that are no list of integers stop earlier
    series = TimeSeries(dt=0.025, values=np.random.default_rng(3).normal(size=(40, 3)))
    observed_grid = [[], [0], [0, 1], [1, 1], [-1, 1], [0.5, 1], [True, 1], [0, 3], [2, 0]]
    target_grid = [2, 0, 1, -1, 3, 1.5, True]
    accepted = 0
    for i, (observed, target) in enumerate((o, t) for o in observed_grid for t in target_grid):
        spec = FeatureSpec(d=max(1, len(observed)), k=2, degrees=(2,))
        try:
            train_inferrer(series, observed, target, spec, 1e-6)
        except ValueError:
            runs = False
        else:
            runs = True
        doc = {"task": "infer-lorenz", "observed": observed, "target": target}
        code = main(["validate", write_config(tmp_path, doc, f"{i}.json"), "--quiet"])
        assert code == (0 if runs else 2), (observed, target)
        accepted += runs
    # [0] or [0, 1] with target 1 or 2, [0, 1] with 2, and [2, 0] with 1
    assert accepted == 4


def test_counts_of_the_cli_and_the_library_reject_the_same_values(tmp_path):
    # one rule, 1 <= n <= 2**53, for substeps (a library parameter) and for
    # the CLI's counts; a fractional or boolean count is refused, not truncated
    for i, value in enumerate([0, -1, 2**53 + 1, 1.5, True]):
        with pytest.raises(ValueError, match="substeps"):
            integration_config(substeps=value)
        for task, key in (("noise-lorenz", "substeps"), ("forecast-lorenz", "train_points")):
            doc = {"task": task, key: value}
            with pytest.raises(ConfigError, match=f"^{key}"):
                resolve_config(doc)
            assert main(["validate", write_config(tmp_path, doc, f"{i}.json"), "--quiet"]) == 2
    assert count("n", 1) is count("n", 2**53) is None
    assert integration_config(substeps=2**53).substeps == 2**53
    # every CLI rule is a checker that holds for the task defaults
    for key, rule in ngrc.cli._RULES.items():
        default = next(task.defaults[key] for task in TASKS.values() if key in task.defaults)
        assert rule(key, default) is None, key


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

"""Benchmark of the ngrc package: end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload forecast-lorenz --seed 0 --seconds 30 --trace 0

Run it from anywhere; it imports ``ngrc`` from this checkout's ``src/`` and
nothing else. Operations run back to back (closed loop, one client) for about
``--seconds``. With ``--trace 0`` the last stdout line reports ``wall_s``
(median per operation), ``setup_s`` (median of several set-ups),
``peak_rss_mb`` and, through ``attempted``/``failed``, the failed fraction.
With ``--trace 1`` every operation runs twice on the same input, untraced
then traced, and the line reports the per-layer metrics of the traced copies
plus the tracing overhead. Full results, provenance and spans go under
``.perfbench_out/``. perfbench/README.md says what each workload and metric
is for.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 3            # set-ups per untraced run; setup_s is their median
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or configs)."""


def load_ngrc() -> float:
    """Import ngrc from this checkout's src/ and return the import time."""
    src = ROOT / "src"
    if not (src / "ngrc" / "__init__.py").is_file():
        raise BenchError(f"no ngrc sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import ngrc
    import ngrc.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(ngrc.__file__).resolve().parent != (src / "ngrc").resolve():
        raise BenchError(f"imported ngrc from {ngrc.__file__}, not from {src}")
    return elapsed


def _blas_libraries() -> list[dict]:
    """Version and thread count of each OpenBLAS loaded into this process."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_config{suffix}"):
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = getattr(lib, f"{prefix}_get_num_threads{suffix}")()
        found.append(entry)
    return found


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "ngrc").glob("*.py"),
                        *(ROOT / "configs").glob("*.json")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    dirty = _git("status", "--porcelain", "--untracked-files=no")
    blas = _blas_libraries()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas[0].get("threads") if blas else None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_setup_probe(args) -> float:
    """One more set-up in a fresh process; returns its setup time."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_ops(workload, seconds: float, trace: bool):
    """Operations back to back for about ``seconds``.

    Returns (untraced results, traced results, and the (spans, counts) of
    each traced operation).
    """
    plain, traced, recorded = [], [], []
    start = time.perf_counter()
    i, last = 0, 0.0
    # Start another operation only if it should end within the window, so a
    # run lasts about ``seconds`` however long one operation takes. Untraced
    # runs make at least two, so that a long operation (noise-lorenz) is
    # timed over two stretches of the machine's varying speed.
    min_ops = 1 if trace else 2
    while i < min_ops or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain.append(workload.op(i))
        if trace:
            with Tracer() as tracer:
                traced.append(workload.op(i))
            recorded.append(tracer.take())
        last = time.perf_counter() - began
        i += 1
    return plain, traced, recorded


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """The highest percentile with at least ten samples above it, if any."""
    if len(values) < 20:
        return None
    k = len(values) - 11                  # ten values lie above index k
    return {"percentile": round(100.0 * (k + 1) / len(values), 1),
            "value": sorted(values)[k]}


def _percentile(values, q):
    return float(sorted(values)[min(len(values) - 1, int(q * len(values)))]) if values else 0.0


def _write_json(path: Path, document, indent=1) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=indent) + "\n")


def check_counts(args, source_sha: str, per_op: list[dict]) -> tuple[bool, list[str]]:
    """Exact counts must repeat across traced operations and traced runs."""
    counts = [{key: op[key] for key in EXACT_COUNTS} for op in per_op]
    mismatches = [f"operation {j}: {c} != {counts[0]}"
                  for j, c in enumerate(counts) if c != counts[0]]
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{source_sha[:16]}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts[0]:
            mismatches.append(f"earlier traced run: {earlier} != {counts[0]}")
    else:
        _write_json(path, counts[0])
    return not mismatches, mismatches


def trace_metrics(args, source_sha, plain, traced, recorded, setup_layers):
    per_op = []
    for spans, counts in recorded:
        metrics = layer_metrics(spans, counts)
        # fit-sweep integrates only while setting up; its systems.* layer
        # figures come from the traced set-up.
        metrics.update({k: v for k, v in setup_layers.items()
                        if k.startswith("systems.") and v})
        per_op.append(metrics)
    metrics = {key: _median([op[key] for op in per_op]) for key in per_op[0]}
    repeat, mismatches = check_counts(args, source_sha, per_op)
    for line in mismatches:
        print(f"perfbench: exact count did not repeat: {line}", file=sys.stderr)
    untraced_wall = _median([r.wall_s for r in plain])
    traced_wall = _median([r.wall_s for r in traced])
    cell_us = [us for r in plain for us in r.cell_us]
    metrics.update({
        "model.fit_cell.p50_us": _percentile(cell_us, 0.50),
        "model.fit_cell.p99_us": _percentile(cell_us, 0.99),
        "cli.output_bytes": float(_median([r.output_bytes for r in plain])),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "bench.counts_repeat": float(repeat),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("forecast-lorenz", "noise-lorenz", "fit-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the setup time and exit")
    args = parser.parse_args(argv)

    units = _units()[args.trace]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        import_s = load_ngrc()  # first, so that it includes numpy and scipy
        from workloads import make_workload

        workload = make_workload(args.workload, ROOT, workdir, args.seed)
        setup_layers = {}
        if args.trace and not args.setup_probe:
            with Tracer() as tracer:
                workload.prepare()
            setup_layers = layer_metrics(*tracer.take())
        else:
            workload.prepare()
    except (BenchError, ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    setup_main = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced, recorded = run_ops(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = plain + traced
    problems = [p for r in ops for p in r.problems]
    run_problems, readouts = workload.gate_run()
    problems += run_problems
    readouts = {**plain[0].readouts, **readouts}

    # Same input, same output: repeated and traced copies must agree bit for bit.
    if workload.REPEATS_INPUT and len({r.outputs_sha for r in ops}) > 1:
        problems.append("outputs differ between operations on the same input")
    for r_plain, r_traced in zip(plain, traced):
        if r_plain.outputs_sha != r_traced.outputs_sha:
            problems.append("traced outputs differ from untraced outputs")

    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    correct = failed == 0 and not problems
    prov = provenance(args)
    exit_codes = {}
    for r in ops:
        if r.exit_code is not None:
            exit_codes[str(r.exit_code)] = exit_codes.get(str(r.exit_code), 0) + 1
    # The first operation's input depends on the seed alone, so its
    # fingerprints compare across runs, commits and seeds.
    fingerprint, results_fingerprint = plain[0].outputs_sha, plain[0].results_sha
    walls = [r.wall_s for r in plain]
    tail = _tail(walls)

    if args.trace:
        metrics = trace_metrics(args, prov["source_sha256"], plain, traced,
                                recorded, setup_layers)
        metrics["proc.import_s"] = import_s
        metrics.update({k: float(v) for k, v in readouts.items()})
    else:
        setups = [setup_main] + [run_setup_probe(args) for _ in range(SETUPS - 1)]
        metrics = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": peak_rss_mb,
        }

    metrics = {name: metrics.get(name, 0.0) for name in units}
    document = {
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "exit_codes": exit_codes,
        "wall_s_samples": len(walls),
        "wall_s_tail": tail,
        "fingerprint": fingerprint,
        "results_fingerprint": results_fingerprint,
        "operations": [{"wall_s": r.wall_s, "traced": j >= len(plain),
                        "outputs_sha": r.outputs_sha, "results_sha": r.results_sha,
                        "attempted": r.attempted, "failed": r.failed}
                       for j, r in enumerate(ops)],
        "metrics": metrics,
    }
    if not args.trace:
        document["setup_samples_s"] = setups
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_json(OUT / "results" / f"{tag}.json", document)
    if args.trace:
        _write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.json", recorded)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"fingerprint: outputs {fingerprint[:16]} results {results_fingerprint[:16]}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} operations"
          + (f" (+{len(traced)} traced)" if traced else "")
          + f", exit codes {exit_codes}, correct {correct}")
    print(f"  wall_s over {len(walls)} operations: median {_median(walls):.6g} s"
          + (f", p{tail['percentile']:g} {tail['value']:.6g} s" if tail else ""))
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':45s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _units() -> dict[int, dict[str, str]]:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _write_spans(path: Path, recorded) -> None:
    names: dict[str, int] = {}
    ops = []
    for spans, counts in recorded:
        rows = [[names.setdefault(s.name, len(names)), s.start, s.end, s.parent]
                for s in spans]
        ops.append({"counts": counts, "spans": rows})
    _write_json(path, {"names": list(names), "fields": ["name", "start", "end", "parent"],
                       "operations": ops}, indent=None)


if __name__ == "__main__":
    sys.exit(main())

"""Run every canonical experiment config and print the headline numbers.

Results land under runs/<task>/ next to this repository root. Each line
ends with the task's wall time, and a last line gives the total, so timing
claims can be copied from a run instead of estimated.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ngrc.cli import TASKS, main  # noqa: E402


def headline(task: str, summary: dict) -> str:
    if task.startswith("forecast"):
        uss = max(e["scaled_distance"] for e in summary["uss"]
                  if e["scaled_distance"] is not None)
        line = (f"valid_time {summary['valid_time_lyapunov']:.2f} Ly "
                f"(median {summary['valid_time_median']:.2f}), "
                f"worst USS distance {uss:.2e}")
        if "return_map" in summary:
            line += f", return map off by {100 * summary['return_map']['relative_deviation']:.3f}%"
        return line
    if task == "infer-lorenz":
        return (f"train NRMSE {summary['train_nrmse']:.2e}, "
                f"test NRMSE {summary['test_nrmse']:.2e} "
                f"(ratio {summary['test_to_train_ratio']:.2f})")
    if task == "sweep-trainsize":
        m = summary["mean_nrmse"]
        return (f"mean NRMSE at 100/250/1000 points: "
                f"{m['100']:.1e} / {m['250']:.1e} / {m['1000']:.1e}")
    if task == "noise-lorenz":
        return f"median scaled RMSE {summary['scaled_rmse_median']:.2e} over {summary['repeats']} seeds"
    if task == "complexity":
        row = summary["tables"][0]["rows"][0]
        lo, hi = row["computed_speedup"]
        return f"speedup vs {row['reference']}: {lo:.1f}-{hi:.1f} (published {row['quoted_speedup']})"
    if task == "baseline-rc":
        return f"train NRMSE {summary['train_nrmse']:.2e} with {summary['n_nodes']} nodes"
    return ""


def run_all() -> int:
    total = 0.0
    for task in TASKS:
        config = ROOT / "configs" / f"{task}.json"
        out = ROOT / "runs" / task
        start = time.perf_counter()
        code = main(["run", str(config), "--out", str(out), "--quiet"])
        wall = time.perf_counter() - start
        total += wall
        if code != 0:
            print(f"{task}: FAILED with exit code {code} [{wall:.1f} s]")
            return code
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        print(f"{task}: {headline(task, summary)} [{wall:.1f} s]")
    print(f"total: {total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())

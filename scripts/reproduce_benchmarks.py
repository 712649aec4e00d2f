"""Run every canonical experiment config and print each task's headline.

Results land under runs/<task>/ next to this repository root. Each line
ends with the task's wall time and this process's peak resident set size
so far (ru_maxrss never falls, so a task's figure is the largest of it and
every task before it), and a last line gives the total wall time, so timing
and memory claims can be copied from a run instead of estimated.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ngrc.cli import TASKS, main  # noqa: E402


def run_all() -> int:
    total = 0.0
    for task in TASKS:
        config = ROOT / "configs" / f"{task}.json"
        out = ROOT / "runs" / task
        start = time.perf_counter()
        code = main(["run", str(config), "--out", str(out), "--quiet"])
        wall = time.perf_counter() - start
        total += wall
        # KiB on Linux; the same MiB figure as perfbench's peak_rss_mb
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cost = f"[{wall:.1f} s, peak RSS so far {peak:.1f} MiB]"
        if code != 0:
            print(f"{task}: FAILED with exit code {code} {cost}")
            return code
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        print(f"{task}: {TASKS[task].headline(summary)} {cost}")
    print(f"total: {total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run_all())

#!/usr/bin/env python
"""Same-host A/B performance gate over ``perfbench``.

    python scripts/perf_ab.py --baseline <rev>

Checks ``<rev>`` out into a temporary git worktree.  For every workload
in ``BENCHMARK.json`` it runs ``perfbench/run.py --workload W --seconds
5`` of the baseline and of this checkout (uncommitted edits included),
:data:`PAIRS` times each.  The runs are sequential, and which side goes
first alternates from pair to pair, so drift on the host hits both sides
alike.  Every run reports times scaled by its own calibration kernel.

Prints, per workload, each end-to-end metric's median over pairs of the
change/baseline ratio; a workload the baseline does not have is
skipped.  Exits 1 when a metric is worse than its ``BENCHMARK.json``
``bound`` in its ``better`` direction, when this checkout reports
``correct: false``, or when it fails more operations than the
baseline.  The bounds come from ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pairs per workload: the fewest that give a median which one noisy
#: run cannot move.
PAIRS = 3
#: Host seconds per run.
SECONDS = 5
#: A run that has not finished by then has hung.
RUN_TIMEOUT_S = 900


def worse_by(better: str, ratio: float) -> float:
    """How much worse a change/baseline ``ratio`` is (negative: better)."""
    return 1.0 - ratio if better == "higher" else ratio - 1.0


def ratio(change: float, base: float) -> float:
    if base == 0.0:
        return 1.0 if change == 0.0 else float("inf")
    return change / base


def compare(
    base_runs: Sequence[dict], change_runs: Sequence[dict], end_to_end: Sequence[dict]
) -> Tuple[List[dict], List[str]]:
    """Compare paired perfbench results of one workload.

    ``base_runs[i]`` and ``change_runs[i]`` are the result objects (the
    last line of ``perfbench/run.py``) of pair ``i``; ``end_to_end`` is
    ``BENCHMARK.json``'s metric list.  Returns one row per metric and
    the reasons the gate fails (empty when it passes).
    """
    rows, failures = [], []
    for metric in end_to_end:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        median = statistics.median(ratio(c, b) for c, b in zip(change, base))
        worse = worse_by(metric["better"], median)
        ok = worse <= metric["bound"]
        rows.append(
            {
                "metric": name,
                "base": statistics.median(base),
                "change": statistics.median(change),
                "ratio": median,
                "bound": metric["bound"],
                "better": metric["better"],
                "ok": ok,
            }
        )
        if not ok:
            failures.append(
                f"{name}: median ratio {median:.3f} is {worse:.1%} worse "
                f"({metric['better']} is better; bound {metric['bound']:.0%})"
            )
    if not all(run["correct"] for run in change_runs):
        failures.append("this checkout reported correct: false")
    base_failed = sum(run["failed"] for run in base_runs)
    change_failed = sum(run["failed"] for run in change_runs)
    if change_failed > base_failed:
        failures.append(
            f"{change_failed} failed operations, baseline {base_failed}"
        )
    return rows, failures


def format_rows(workload: str, rows: Sequence[dict]) -> str:
    lines = [
        f"{workload}",
        f"  {'metric':14s} {'better':>6s} {'baseline':>12s} {'change':>12s} "
        f"{'ratio':>7s} {'bound':>6s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['metric']:14s} {row['better']:>6s} {row['base']:12.4g} "
            f"{row['change']:12.4g} {row['ratio']:7.3f} {row['bound']:6.0%}"
            + ("" if row["ok"] else "  WORSE")
        )
    return "\n".join(lines)


def run_side(root: str, workload: str) -> dict:
    """One perfbench run of the checkout at ``root``; its result object."""
    # Each side imports the sources of its own checkout only.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seconds", str(SECONDS)],
        cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root}: perfbench {workload} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_pairs(base_root: str, workload: str) -> Tuple[List[dict], List[dict]]:
    runs: Dict[str, List[dict]] = {base_root: [], ROOT: []}
    for pair in range(PAIRS):
        order = (base_root, ROOT) if pair % 2 == 0 else (ROOT, base_root)
        for root in order:
            runs[root].append(run_side(root, workload))
    return runs[base_root], runs[ROOT]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    bench = load_benchmark(ROOT)
    rev = git("rev-parse", "--verify", f"{args.baseline}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="perf_ab_")
    base_root = os.path.join(tmp, "baseline")
    failed = False
    try:
        git("worktree", "add", "--detach", base_root, rev)
        print(f"baseline {rev[:12]} vs this checkout: {PAIRS} pairs x {SECONDS} s per workload")
        base_workloads = {w["name"] for w in load_benchmark(base_root)["workloads"]}
        for workload in (w["name"] for w in bench["workloads"]):
            if workload not in base_workloads:
                # A change that adds a workload has nothing to compare it with.
                print(f"{workload}\n  not in the baseline's BENCHMARK.json; not compared")
                continue
            base_runs, change_runs = run_pairs(base_root, workload)
            rows, failures = compare(base_runs, change_runs, bench["end_to_end"])
            print(format_rows(workload, rows), flush=True)
            for reason in failures:
                print(f"  FAIL {reason}")
            failed = failed or bool(failures)
    finally:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "remove", "--force", base_root],
            capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
    print("perf A/B: FAIL" if failed else "perf A/B: pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

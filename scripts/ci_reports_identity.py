#!/usr/bin/env python
"""CI report identity: every committed robustness report reproduces.

Reruns the command recorded for each robustness report under
``results/`` (the same list as EXPERIMENTS.md, "Fault campaigns and
chaos soak") into a temporary directory and compares each ``.txt`` and
``.json`` byte for byte with the committed file.  The job fails when a
report no longer reproduces -- a harness changed its numbers or its
format and the committed results were not refreshed -- and when a
committed robustness report has no recorded command.

``results/fleet.txt`` (+ ``.json``) is left out: the worker-fault
arguments it was produced with are not recorded, and
``scripts/ci_fleet_smoke.py`` already checks that fleet reports are
deterministic.

Exits 0 on success, 1 listing every differing or unrecorded report.
"""

import filecmp
import glob
import os
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.watchdog import WallClockWatchdog  # noqa: E402

#: Hard wall-clock budget; a hung regeneration exits 2 with thread
#: stacks instead of stalling the CI job (override: REPRO_SMOKE_TIMEOUT_S).
WALL_BUDGET_S = 900.0

RESULTS_DIR = os.path.join(REPO_ROOT, "results")

#: Report stems the robustness harnesses write; every committed file
#: matching one of these must have a command below.
ROBUSTNESS_GLOBS = ("campaign_*", "soak_*", "overload_*", "modelerror")

_SMOKE = ["--governors", "PPM", "--campaign-duration", "15", "--campaign-warmup", "3"]

#: report stem -> ``repro-experiments`` arguments that produce it.
REPORT_COMMANDS = {
    "campaign_sensor-dropout": ["campaign", "--fault", "sensor-dropout", *_SMOKE],
    "campaign_counter-bias": ["campaign", "--fault", "counter-bias", *_SMOKE],
    "campaign_power-model-drift": [
        "campaign", "--fault", "power-model-drift", *_SMOKE
    ],
    "campaign_hotplug": [
        "campaign", "--fault", "hotplug", "--governors", "PPM,HL",
        "--campaign-duration", "20", "--intensity", "0.25",
    ],
    "overload_l1": ["overload"],
    "overload_soak_m2": ["overload-soak", "--soak-duration", "60"],
    "modelerror": ["model-error", "--campaign-duration", "40"],
}


def committed_stems():
    stems = set()
    for pattern in ROBUSTNESS_GLOBS:
        for path in glob.glob(os.path.join(RESULTS_DIR, pattern + ".txt")):
            stems.add(os.path.basename(path)[: -len(".txt")])
    return stems


def regenerate(args, out_dir):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args, "--out", out_dir],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def main() -> int:
    failures = [
        f"results/{stem}.txt has no recorded command in this script"
        for stem in sorted(committed_stems() - set(REPORT_COMMANDS))
    ]
    with tempfile.TemporaryDirectory(prefix="reports-identity-") as out_dir:
        for stem, args in REPORT_COMMANDS.items():
            started = time.monotonic()
            proc = regenerate(args, out_dir)
            elapsed = time.monotonic() - started
            if proc.returncode != 0:
                failures.append(
                    f"{stem}: 'repro-experiments {' '.join(args)}' exited "
                    f"{proc.returncode}:\n{proc.stderr}"
                )
                continue
            differing = [
                stem + ext
                for ext in (".txt", ".json")
                if not filecmp.cmp(
                    os.path.join(out_dir, stem + ext),
                    os.path.join(RESULTS_DIR, stem + ext),
                    shallow=False,
                )
            ]
            status = "DIFFERS" if differing else "ok"
            print(f"{status:8s}{stem}  ({elapsed:.1f} s)")
            failures.extend(
                f"results/{name} differs from 'repro-experiments "
                f"{' '.join(args)}'"
                for name in differing
            )
    if failures:
        print("REPORT IDENTITY FAILED:")
        for line in failures:
            print("  -", line)
        return 1
    print(f"all {len(REPORT_COMMANDS)} robustness reports reproduce byte for byte")
    return 0


if __name__ == "__main__":
    with WallClockWatchdog(WALL_BUDGET_S, label="reports identity"):
        sys.exit(main())

#!/usr/bin/env python
"""CI crash-recovery drill: SIGKILL a campaign mid-run, resume, compare.

Launches a checkpointing fault campaign as a subprocess, waits for the
first checkpoint file to appear, kills the process with SIGKILL (no
cleanup handlers run -- the atomic write discipline is what is on
trial), resumes from the surviving checkpoints, and asserts the resumed
campaign's report is byte-identical to an uninterrupted run's.

The drill runs three times: once serially, once with ``--jobs 2`` so
two governor points are checkpointing *concurrently* into their own
``point_<index>-<governor>/`` subdirectories when the SIGKILL lands --
the parallel-safety property the per-point layout exists for -- and
once timed to land *mid checkpoint interval*: right after a checkpoint
plus a fraction of the observed checkpoint cadence, so the run has
crossed epoch boundaries that the next checkpoint has not yet captured.
Crash recovery must replay from the last *written* checkpoint; state
dying with the process is exactly what the drill proves harmless.

The campaign's m1 set is below ``VEC_MIN_TASKS``, so the drill runs the
object tick loop that production picks for it.  Crash recovery of the
columnar loop's lazy column state is covered by
``tests/checkpoint/test_columnar_resume.py``.

Exits 0 on success, 1 with a diagnostic on any mismatch.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.watchdog import WallClockWatchdog  # noqa: E402

#: Hard wall-clock budget; a hung drill (e.g. a victim subprocess that
#: never checkpoints) exits 2 with thread stacks instead of stalling the
#: CI job (override: REPRO_SMOKE_TIMEOUT_S).
WALL_BUDGET_S = 1200.0

FAULT = "sensor-dropout"
CAMPAIGN_ARGS = [
    "--fault", FAULT,
    "--governors", "PPM,HL",
    "--workload", "m1",
    "--campaign-duration", "12",
    "--campaign-warmup", "2",
    "--intensity", "0.4",
    "--seed", "5",
    "--checkpoint-interval", "1",
]


def campaign_command(checkpoint_dir, out_dir, jobs=None):
    command = [
        sys.executable, "-m", "repro.experiments.cli", "checkpoint",
        *CAMPAIGN_ARGS,
        "--checkpoint-dir", checkpoint_dir,
        "--out", out_dir,
    ]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    return command


def find_checkpoints(directory):
    """All checkpoint files under the campaign directory (point subdirs)."""
    found = []
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.startswith("ckpt_"):
                found.append(os.path.relpath(os.path.join(root, name), directory))
    return found


def wait_for_checkpoint(directory, min_streams=1, timeout_s=120.0):
    """Block until checkpoints exist in ``min_streams`` point directories."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        names = find_checkpoints(directory)
        streams = {os.path.dirname(name) for name in names}
        if len(streams) >= min_streams:
            return names
        time.sleep(0.05)
    raise SystemExit(
        f"checkpoints in {min_streams} point dir(s) did not appear under "
        f"{directory!r} within {timeout_s}s"
    )


def wait_for_new_checkpoint(directory, prior_count, timeout_s=120.0):
    """Block until the checkpoint count exceeds ``prior_count``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        names = find_checkpoints(directory)
        if len(names) > prior_count:
            return names
        time.sleep(0.02)
    raise SystemExit(
        f"no checkpoint beyond the first {prior_count} appeared under "
        f"{directory!r} within {timeout_s}s"
    )


def read_report(out_dir):
    path = os.path.join(out_dir, f"campaign_{FAULT}.json")
    with open(path) as handle:
        return json.load(handle)


def run_drill(workdir, env, reference, jobs, min_streams, mid_interval=False):
    """One kill-resume cycle; returns True when the reports match."""
    tag = f"jobs{jobs or 1}" + ("-midint" if mid_interval else "")
    ckpt_dir = os.path.join(workdir, f"ckpt-{tag}")
    victim_out = os.path.join(workdir, f"victim-{tag}")
    # The victim gets its own session (= its own process group) and the
    # SIGKILL goes to the whole group: with --jobs its pool workers are
    # separate processes, and killing only the parent would orphan them
    # -- still writing checkpoints, blocked forever on the dead pool's
    # task queue, and holding any inherited pipes open.  Killing the
    # group is also the honest crash model: a dying machine takes the
    # workers down with the parent.
    victim = subprocess.Popen(
        campaign_command(ckpt_dir, victim_out, jobs=jobs),
        env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        seen = wait_for_checkpoint(ckpt_dir, min_streams=min_streams)
        if mid_interval:
            # A checkpoint just landed.  Measure the checkpoint cadence,
            # then sleep a fraction of it: the tick loop will have
            # crossed epoch boundaries whose state the *next* checkpoint
            # has not captured when the SIGKILL arrives.
            start = time.monotonic()
            seen = wait_for_new_checkpoint(ckpt_dir, len(seen))
            cadence = time.monotonic() - start
            time.sleep(min(2.0, max(0.05, 0.4 * cadence)))
    finally:
        if victim.poll() is None:
            try:
                os.killpg(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        victim.wait()
    print(f"[{tag}] killed campaign after checkpoint(s): {sorted(seen)}")
    if os.path.exists(os.path.join(victim_out, f"campaign_{FAULT}.json")):
        raise SystemExit(
            "victim finished before the kill; lower the checkpoint "
            "interval or raise the campaign duration"
        )

    # Resume from whatever survived and compare reports.
    resume = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.cli", "resume",
            "--checkpoint-dir", ckpt_dir,
            "--checkpoint-interval", "1",
            "--out", victim_out,
        ],
        check=True, env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    print(f"[{tag}] " + resume.stdout.strip().splitlines()[-1])
    resumed = read_report(victim_out)
    if resumed != reference:
        print(f"[{tag}] resumed campaign report differs from uninterrupted run:")
        print(json.dumps(reference, indent=2, sort_keys=True)[:2000])
        print("--- vs resumed ---")
        print(json.dumps(resumed, indent=2, sort_keys=True)[:2000])
        return False

    # The replayed checkpoints must also verify divergence-free.
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.cli", "replay",
            "--checkpoint-dir", ckpt_dir, "--verify",
        ],
        check=True, env=env, cwd=REPO_ROOT,
    )
    print(f"[{tag}] kill-resume drill passed")
    return True


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    workdir = tempfile.mkdtemp(prefix="kill-resume-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    try:
        # Reference: the same campaign, never interrupted.
        ref_out = os.path.join(workdir, "reference")
        subprocess.run(
            campaign_command(os.path.join(workdir, "ref-ckpt"), ref_out),
            check=True, env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
        )
        reference = read_report(ref_out)

        # Serial victim: killed at its first checkpoint.
        if not run_drill(workdir, env, reference, jobs=None, min_streams=1):
            return 1
        # Parallel victim: two governor points checkpointing concurrently
        # into their own subdirectories when the SIGKILL lands.
        if not run_drill(workdir, env, reference, jobs=2, min_streams=2):
            return 1
        # Mid-interval victim: killed between an epoch boundary and the
        # next checkpoint.
        if not run_drill(
            workdir, env, reference, jobs=None, min_streams=1,
            mid_interval=True,
        ):
            return 1
        print("kill-resume drills passed: resumed reports match uninterrupted run")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    with WallClockWatchdog(WALL_BUDGET_S, label="kill-resume drill"):
        sys.exit(main())

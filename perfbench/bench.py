"""Run one workload for a time budget and report its metrics.

``run_workload`` repeats the workload's operation until ``seconds`` of
host time are spent (at least :data:`MIN_OPS` operations) and checks
every operation's digest:

* untraced (``trace=False``): the end-to-end metrics, in host time
  scaled to the reference host of :mod:`calibrate`.  All operations of
  a run do identical work, so each tick (fleet: each epoch and each
  chip-epoch request) has one sample per operation; the metrics are
  read off the element-wise median over operations.  A burst of
  interference on a shared host slows a minority of the operations at
  any one tick and drops out of that median.
* traced (``trace=True``): operations alternate untraced and traced.
  Each per-layer metric is a traced total divided by the number of
  traced operations (one run, or one fleet campaign), so it does not
  depend on how many operations fit in the budget.  Every ``*_ms``
  except ``sim.step_ms`` is a self time: ``sim.step_ms`` equals
  ``sim.engine_self_ms`` plus the self times of the spans inside the
  step.  ``trace.overhead_frac`` is ``1 - traced / untraced`` median
  ``ticks_per_s``.

An operation fails when it raises, or when its digest differs from the
pin in ``spec.json`` for this workload and seed, or -- for a seed
without a pin -- from the run's first digest.  ``churn_ckpt`` adds one
operation after the window: the final checkpoint of the last operation
that completed is read back and restored
(:func:`workloads.churn_readback`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy

import workloads
from calibrate import REFERENCE_NS, Calibrator
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every run makes at least this many operations, whatever ``seconds``
#: is: two untraced ones let an unpinned seed still be checked for
#: determinism; a traced run gets one of each kind.
MIN_OPS = 2

#: Per-layer metric -> (span or counter name, what to read): a span's
#: total or self time or call count, a counter, or a time in ms that an
#: operation measured itself (``op_ms``).
LAYER_SOURCES = {
    "sim.step_ms": ("sim.step", "total_ms"),
    "sim.engine_self_ms": ("sim.step", "self_ms"),
    "sim.sync_ms": ("sim.sync", "self_ms"),
    "sim.sync_calls": ("sim.sync", "calls"),
    "sim.metrics_record_ms": ("sim.metrics_record", "self_ms"),
    "core.governor_self_ms": ("core.governor", "self_ms"),
    "core.market_round_ms": ("core.market_round", "self_ms"),
    "core.market_rounds": ("core.market_round", "calls"),
    "core.lbt_ms": ("core.lbt", "self_ms"),
    "core.lbt_proposals": ("core.lbt", "calls"),
    "core.lbt_moves": ("core.lbt_moves", "counter"),
    "core.powerest_ms": ("core.powerest", "self_ms"),
    "core.admission_ms": ("core.admission", "self_ms"),
    "core.arrivals_offered": ("core.arrivals_offered", "counter"),
    "core.arrivals_admitted": ("core.arrivals_admitted", "counter"),
    "core.arrivals_shed": ("core.arrivals_shed", "counter"),
    "hw.chip_tick_ms": ("hw.chip_tick", "self_ms"),
    "hw.sensor_ms": ("hw.sensor", "self_ms"),
    "hw.thermal_ms": ("hw.thermal", "self_ms"),
    "checkpoint.save_ms": ("checkpoint.save", "self_ms"),
    "checkpoint.saves": ("checkpoint.save", "calls"),
    "checkpoint.bytes": ("checkpoint.bytes", "counter"),
    "fleet.spawn_ms": ("fleet.spawn_ms", "op_ms"),
    "fleet.request_ms": ("fleet.request", "self_ms"),
    "fleet.requests": ("fleet.request", "calls"),
    "fleet.auction_ms": ("fleet.auction", "self_ms"),
    "fleet.audit_ms": ("fleet.audit", "self_ms"),
    "fleet.manifest_ms": ("fleet.manifest", "self_ms"),
    "fleet.manifest_bytes": ("fleet.manifest_bytes", "counter"),
}


BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
SPEC_JSON = os.path.join(HERE, "spec.json")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``values``."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil
    return ordered[max(1, int(rank)) - 1]


class Run:
    """One benchmark run's operations and correctness bookkeeping."""

    def __init__(self, expected: Optional[str]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.untraced: List[workloads.OpResult] = []
        self.traced: List[workloads.OpResult] = []
        #: Calibration kernel times, one before the first op and one
        #: after each op.
        self.calibration_ns: List[float] = []

    def record(self, op: workloads.OpResult, traced: bool) -> None:
        self.attempted += op.units
        if self.expected is None:
            self.expected = op.digest  # unpinned seed: check determinism
        if op.digest != self.expected:
            self.failed += op.units
            self.errors.append(
                f"digest {op.digest[:16]} != expected {self.expected[:16]}"
            )
        (self.traced if traced else self.untraced).append(op)

    def fail(self, units: int, exc: BaseException) -> None:
        self.attempted += units
        self.failed += units
        self.errors.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: str,
    pins: Optional[Dict[str, str]] = None,
    min_ops: int = MIN_OPS,
) -> dict:
    """Run workload ``name``; returns ``{"result": ..., "provenance": ...}``.

    ``pins`` maps seeds (as strings) to expected digests and defaults to
    this workload's pins in ``spec.json``.  At least ``min_ops``
    operations run.
    """
    workload = workloads.WORKLOADS[name]
    if pins is None:
        pins = load_json(SPEC_JSON)["digests"][name]
    run = Run(pins.get(str(seed)))
    tracer = Tracer() if trace else None
    calibrator = Calibrator()
    run.calibration_ns.append(calibrator.measure())
    deadline = time.monotonic() + seconds
    # The last operation that completed, and its directory, which holds
    # the checkpoint read back after the window; every other op's
    # directory is removed once the op ends.
    last_op, last_dir = None, None
    index = 0
    while index < min_ops or time.monotonic() < deadline:
        traced = trace and index % 2 == 1
        op_dir = os.path.join(scratch, f"op{index}")
        try:
            op = workload.run_op(seed, op_dir, tracer if traced else None)
        except Exception as exc:  # a failed operation is counted, not fatal
            op = None
            run.fail(workload.units, exc)
        if op is None:
            shutil.rmtree(op_dir, ignore_errors=True)
        else:
            if last_dir is not None:
                shutil.rmtree(last_dir, ignore_errors=True)
            last_op, last_dir = op, op_dir
        gc.collect()
        run.calibration_ns.append(calibrator.measure())
        if op is not None:
            op.speed = 2 * REFERENCE_NS / sum(run.calibration_ns[-2:])
            run.record(op, traced)
        index += 1
    if last_op is None:
        raise RuntimeError(f"every operation failed: {run.errors}")
    if last_op.last_checkpoint is not None:
        try:
            workloads.churn_readback(seed, last_op.last_checkpoint, last_op.digest)
        except Exception as exc:
            run.fail(1, exc)
        else:
            run.attempted += 1
    metrics = layer_metrics(run, tracer) if trace else end_to_end_metrics(run.untraced)
    bench = load_json(BENCHMARK_JSON)
    units = {
        m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]
    }
    return {
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                key: {"value": metrics[key], "unit": unit}
                for key, unit in units.items()
            },
        },
        "provenance": provenance(name, seed, run, last_op),
    }


def scaled_profile(ops: List[workloads.OpResult], samples: str) -> List[float]:
    """Element-wise median over ops of ``samples``, reference-host scaled."""
    scaled = [[t * op.speed for t in getattr(op, samples)] for op in ops]
    return [statistics.median(column) for column in zip(*scaled)]


def ticks_per_s(ops: List[workloads.OpResult]) -> float:
    return ops[0].ticks * 1e9 / sum(scaled_profile(ops, "busy_ns"))


def end_to_end_metrics(ops: List[workloads.OpResult]) -> Dict[str, float]:
    ticks_ns = scaled_profile(ops, "tick_ns")
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ticks_per_s": ticks_per_s(ops),
        "tick_p50_us": percentile(ticks_ns, 50) / 1e3,
        "tick_p99_us": percentile(ticks_ns, 99) / 1e3,
        "epoch_p50_ms": statistics.median(scaled_profile(ops, "epoch_ns")) / 1e6,
        "setup_s": statistics.median(op.setup_ns * op.speed for op in ops) / 1e9,
        "peak_rss_mb": (own_kb + max(op.rss_kb for op in ops)) / 1024,
    }


def layer_metrics(run: Run, tracer: Tracer) -> Dict[str, float]:
    n = len(run.traced)
    if n == 0 or not run.untraced:
        raise RuntimeError(f"no traced/untraced operation pair completed: {run.errors}")
    # Totals span all traced ops, so they scale by the ops' mean speed.
    ms_per_ns = statistics.mean(op.speed for op in run.traced) / 1e6
    values = {}
    for metric, (key, kind) in LAYER_SOURCES.items():
        if kind == "total_ms":
            total = tracer.total_ns[key] * ms_per_ns
        elif kind == "self_ms":
            total = tracer.self_ns[key] * ms_per_ns
        elif kind == "calls":
            total = tracer.calls[key]
        elif kind == "op_ms":
            total = sum(op.counters.get(key, 0) * op.speed for op in run.traced)
        else:
            total = tracer.counters[key] + sum(op.counters.get(key, 0) for op in run.traced)
        values[metric] = total / n
    proposals = values["core.lbt_proposals"]
    values["core.lbt_move_ratio"] = values["core.lbt_moves"] / proposals if proposals else 0.0
    values["trace.overhead_frac"] = 1.0 - (
        ticks_per_s(run.traced) / ticks_per_s(run.untraced)
    )
    return values


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a plain checkout: no git metadata to report
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    """sha256 over every ``src/**/*.py`` path and content, sorted."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    paths = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(".py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def provenance(name: str, seed: int, run: Run, op: workloads.OpResult) -> dict:
    spec = load_json(SPEC_JSON)
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": name,
        "seed": seed,
        "default_seed": spec["default_seed"],
        "heldout_seed": spec["heldout_seed"],
        "digest": run.expected,
        "calibration_ns": statistics.median(run.calibration_ns),
        "reference_calibration_ns": REFERENCE_NS,
        "digest_pinned": str(seed) in spec["digests"][name],
        "operations": len(run.untraced) + len(run.traced),
        "errors": run.errors[:5],
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_sha256(),
        "engine": op.engine,
        "sync_mode": op.sync_mode,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }

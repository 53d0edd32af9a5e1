"""The benchmark's own tests.

    python -m pytest perfbench -q

Each workload runs its minimum of two operations, so the whole file
takes well under a minute on a 2-core VM.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import workloads  # noqa: E402
from repro.checkpoint import CheckpointCorruptError  # noqa: E402
from repro.core.market import Market  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPAN_NAMES_IN_STEP = [
    "sim.sync_ms",
    "sim.metrics_record_ms",
    "core.governor_self_ms",
    "core.market_round_ms",
    "core.lbt_ms",
    "core.powerest_ms",
    "core.admission_ms",
    "hw.chip_tick_ms",
    "hw.sensor_ms",
    "hw.thermal_ms",
    "checkpoint.save_ms",
]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run (one untraced + one traced op) per workload."""
    runs = {}
    for name in workloads.WORKLOADS:
        scratch = str(tmp_path_factory.mktemp(name))
        runs[name] = bench.run_workload(name, 1, 0.0, True, scratch)["result"]
    return runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_reproduce_the_pinned_digest(traced, name):
    # Every op, traced or not, is checked against the pin: the wrappers
    # must change no simulated bit.
    result = traced[name]
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    assert result["correct"] is True


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_are_nonnegative_and_fit_inside_the_step(traced, name):
    values = {k: m["value"] for k, m in traced[name]["metrics"].items()}
    for metric, value in values.items():
        if metric != "trace.overhead_frac":
            assert value >= 0, metric
    children = sum(values[m] for m in SPAN_NAMES_IN_STEP)
    assert children <= values["sim.step_ms"] + 1e-6
    assert values["sim.engine_self_ms"] == pytest.approx(
        values["sim.step_ms"] - children, abs=1e-6
    )


def test_churn_trace_sees_every_single_chip_layer(traced):
    values = {k: m["value"] for k, m in traced["churn_ckpt"]["metrics"].items()}
    for metric in SPAN_NAMES_IN_STEP + ["core.arrivals_offered", "checkpoint.bytes"]:
        assert values[metric] > 0, metric


def test_fleet_trace_sees_the_fleet_layer(traced):
    values = {k: m["value"] for k, m in traced["fleet"]["metrics"].items()}
    assert values["fleet.requests"] == workloads.WORKLOADS["fleet"].units
    for metric in ("fleet.spawn_ms", "fleet.request_ms", "fleet.manifest_bytes"):
        assert values[metric] > 0, metric


def test_metric_names_and_spec_match_benchmark_json(traced):
    spec = bench.load_json(bench.SPEC_JSON)
    doc = bench.load_json(bench.BENCHMARK_JSON)
    per_layer = [m["name"] for m in doc["per_layer"]]
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    for name in per_layer + sorted(end_to_end):
        assert NAME.fullmatch(name), name
    for result in traced.values():
        assert list(result["metrics"]) == per_layer
    assert list(spec["moves"]) == per_layer
    names = {w["name"] for w in doc["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(spec["digests"])
    for moves in spec["moves"].values():
        for metric, workload in moves:
            assert metric in end_to_end and workload in names


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = bench.run_workload("paper", 1, 0.0, False, str(tmp_path))["result"]
    expected = [m["name"] for m in bench.load_json(bench.BENCHMARK_JSON)["end_to_end"]]
    assert list(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0


def test_times_scale_by_host_speed():
    def op(samples, speed):
        return workloads.OpResult(
            units=1, digest="d", engine="e", sync_mode="s",
            setup_ns=samples[0], ticks=len(samples), busy_ns=samples,
            tick_ns=samples, epoch_ns=[sum(samples)], speed=speed,
        )

    base = [op([100, 300, 200], 1.0), op([110, 290, 210], 1.0)]
    # The same work on a host half as fast, with calibration saying so.
    slow = [op([2 * t for t in o.busy_ns], 0.5) for o in base]
    expected = bench.end_to_end_metrics(base)
    got = bench.end_to_end_metrics(slow)
    for name in ("ticks_per_s", "tick_p50_us", "tick_p99_us", "epoch_p50_ms", "setup_s"):
        assert got[name] == pytest.approx(expected[name]), name
    assert expected["ticks_per_s"] == pytest.approx(3e9 / 605)


def test_a_corrupted_pin_fails_every_operation(tmp_path):
    out = bench.run_workload("paper", 1, 0.0, False, str(tmp_path), pins={"1": "0" * 64})
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_churn_readback_rejects_a_corrupted_checkpoint(tmp_path):
    op = workloads.WORKLOADS["churn_ckpt"].run_op(1, str(tmp_path), None)
    workloads.churn_readback(1, op.last_checkpoint, op.digest)
    with open(op.last_checkpoint, "r+", encoding="utf-8") as handle:
        text = handle.read()
        handle.seek(0)
        handle.write(text.replace('"payload_sha256": "', '"payload_sha256": "0', 1))
    with pytest.raises(CheckpointCorruptError):
        workloads.churn_readback(1, op.last_checkpoint, op.digest)


def test_churn_readback_uses_the_last_op_of_an_odd_traced_run(tmp_path):
    # Untraced, traced, untraced: the read-back must restore the last
    # op's checkpoint, not the traced op's, whose directory is gone.
    out = bench.run_workload("churn_ckpt", 1, 0.0, True, str(tmp_path), min_ops=3)
    result = out["result"]
    assert result["attempted"] == 3 + 1
    assert result["failed"] == 0, out["provenance"]["errors"]


def test_a_missing_trace_target_fails_and_unpatches():
    original = Market.run_round
    targets = [
        ("repro.core.market", "Market.run_round", "core.market_round", None),
        ("repro.core.market", "Market.renamed_round", "core.market_round", None),
    ]
    with pytest.raises(AttributeError):
        with Tracer().installed(targets):
            pass
    assert Market.run_round is original


def test_tracer_self_time_excludes_children_and_reentry():
    tracer = Tracer()

    def leaf():
        return None

    traced_leaf = tracer.wrap("leaf", leaf)
    inner = tracer.wrap("outer", lambda: traced_leaf())  # re-entry: not a new span
    outer = tracer.wrap("outer", lambda: [inner(), traced_leaf()])
    outer()
    assert tracer.calls == {"outer": 1, "leaf": 2}
    assert tracer.self_ns["outer"] + tracer.total_ns["leaf"] == tracer.total_ns["outer"]


def test_tracer_stamps_each_span_call_in_end_order():
    tracer = Tracer()
    tracer.stamps = []
    leaf = tracer.wrap("leaf", lambda: None)
    tracer.wrap("outer", lambda: leaf())()
    assert [name for name, _, _ in tracer.stamps] == ["leaf", "outer"]
    (_, leaf_start, leaf_end), (_, outer_start, outer_end) = tracer.stamps
    assert outer_start <= leaf_start <= leaf_end <= outer_end


def test_run_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

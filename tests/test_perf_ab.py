"""The same-host A/B gate's decision logic, on synthetic perfbench results.

``scripts/perf_ab.py`` runs real benchmarks; these tests feed its
``compare`` hand-made result objects, so pass and fail are pinned
without running a simulation.
"""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(_ROOT, "scripts", "perf_ab.py")
)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

_METRICS = [
    {"name": "ticks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "tick_p99_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _run(ticks_per_s=1000.0, tick_p99_us=100.0, peak_rss_mb=50.0, failed=0):
    values = {
        "ticks_per_s": ticks_per_s,
        "tick_p99_us": tick_p99_us,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": ""} for name, v in values.items()},
    }


def _compare(change_runs, base_runs=None):
    base_runs = base_runs or [_run()] * len(change_runs)
    return perf_ab.compare(base_runs, change_runs, _METRICS)


def test_synthetic_metrics_mirror_benchmark_json():
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    by_name = {m["name"]: m for m in bench["end_to_end"]}
    for metric in _METRICS:
        assert by_name[metric["name"]]["better"] == metric["better"]
        assert by_name[metric["name"]]["bound"] == metric["bound"]


def test_within_bound_passes():
    rows, failures = _compare(
        [_run(ticks_per_s=800.0, tick_p99_us=120.0, peak_rss_mb=54.0)] * 3
    )
    assert failures == []
    assert [row["ok"] for row in rows] == [True, True, True]
    assert rows[0]["ratio"] == pytest.approx(0.8)


def test_slower_throughput_beyond_bound_fails():
    rows, failures = _compare([_run(ticks_per_s=700.0)] * 3)
    assert len(failures) == 1 and failures[0].startswith("ticks_per_s")
    assert "30.0% worse" in failures[0]
    assert not rows[0]["ok"]


def test_longer_latency_beyond_bound_fails():
    _, failures = _compare([_run(tick_p99_us=130.0)] * 3)
    assert len(failures) == 1 and failures[0].startswith("tick_p99_us")


def test_tighter_memory_bound_applies_per_metric():
    _, failures = _compare([_run(peak_rss_mb=56.0)] * 3)
    assert len(failures) == 1 and failures[0].startswith("peak_rss_mb")


def test_gains_beyond_bound_pass():
    _, failures = _compare(
        [_run(ticks_per_s=2000.0, tick_p99_us=10.0, peak_rss_mb=20.0)] * 3
    )
    assert failures == []


def test_the_median_pair_decides_not_one_outlier():
    # One pair's interference (a 2x slowdown) is outvoted by the others.
    change = [_run(ticks_per_s=500.0), _run(), _run(ticks_per_s=990.0)]
    _, failures = _compare(change)
    assert failures == []


def test_ratios_are_taken_pair_by_pair():
    base = [_run(ticks_per_s=1000.0), _run(ticks_per_s=500.0), _run(ticks_per_s=500.0)]
    change = [_run(ticks_per_s=1000.0), _run(ticks_per_s=500.0), _run(ticks_per_s=500.0)]
    rows, failures = _compare(change, base)
    assert failures == [] and rows[0]["ratio"] == 1.0


def test_more_failed_operations_fail():
    base = [_run(failed=1), _run(), _run()]
    change = [_run(failed=1), _run(failed=1), _run()]
    _, failures = _compare(change, base)
    assert "2 failed operations, baseline 1" in failures


def test_incorrect_change_fails_even_when_baseline_fails_as_often():
    base = [_run(failed=1), _run(), _run()]
    change = [_run(), _run(failed=1), _run()]
    _, failures = _compare(change, base)
    assert failures == ["this checkout reported correct: false"]


def test_zero_on_both_sides_is_no_change():
    assert perf_ab.ratio(0.0, 0.0) == 1.0
    assert perf_ab.worse_by("lower", perf_ab.ratio(1.0, 0.0)) == float("inf")

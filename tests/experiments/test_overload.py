"""Overload campaign: end-to-end flash crowd through the admission ladder.

Short runs (a governor or two, ~12 simulated seconds) exercising the
full stack: arrival stream -> OverloadManager -> AdmissionController ->
engine -> tail-QoS accounting -> report.  The graceful-degradation
acceptance drill itself (3x crowd, every governor, p99 strictly better
than baseline) lives in ``scripts/ci_overload_smoke.py``.
"""

import json

import pytest

from repro.core import AdmissionState
from repro.experiments.overload import (
    OVERLOAD_TDP_W,
    build_overload_arrivals,
    run_overload,
    run_overload_soak,
)
from repro.experiments.scenario import write_report
from repro.hw import tc2_chip
from repro.tasks import sustainable_rate_hz

DURATION_S = 12.0
WARMUP_S = 2.0


@pytest.fixture(scope="module")
def result():
    return run_overload(
        governors=["PPM"], duration_s=DURATION_S, warmup_s=WARMUP_S, seed=3
    )


class TestOverloadRun:
    def test_arrivals_burst_at_multiplier_times_sustainable(self):
        chip = tc2_chip()
        config = build_overload_arrivals(chip, DURATION_S, WARMUP_S, 3.0)
        from repro.tasks import ArrivalConfig

        sustainable = sustainable_rate_hz(chip, ArrivalConfig())
        assert config.burst_rate_hz == pytest.approx(3.0 * sustainable)
        assert config.rate_hz < sustainable

    def test_too_short_a_run_is_rejected(self):
        with pytest.raises(ValueError):
            build_overload_arrivals(tc2_chip(), 5.0, 2.0, 3.0)

    def test_counters_account_for_every_offered_arrival(self, result):
        run = result.runs[0]
        # Every offered arrival ends exactly one way: admitted (directly
        # or via queue drain), timed out in the queue, still queued at
        # the end, or rejected (ladder or overflow).
        settled = run.admitted + run.queue_timeouts + run.rejected
        still_queued = run.offered - settled
        assert 0 <= still_queued <= run.peak_queue_depth
        assert run.offered > 0
        assert run.admitted > 0
        assert run.peak_queue_depth <= 32  # bounded backpressure
        assert run.audit_violations == 0
        assert run.baseline_audit_violations == 0

    def test_ladder_escalates_and_recovers(self, result):
        run = result.runs[0]
        assert run.ladder_transitions >= 2
        # After the burst the ladder must have walked back down.
        assert run.final_state in (
            AdmissionState.OPEN.value,
            AdmissionState.DEGRADED.value,
        )

    def test_tail_qos_keys(self, result):
        run = result.runs[0]
        for payload in (run.tail_qos, run.baseline_tail_qos, run.admission_latency_s):
            assert set(payload) == {"p50", "p95", "p99"}
        assert 0.0 <= run.tail_qos["p99"] <= 1.0

    def test_report_round_trips(self, result, tmp_path):
        path = write_report(result, out_dir=str(tmp_path))
        table = (tmp_path / "overload_l1.txt").read_text()
        assert "PPM" in table and "p99 miss" in table
        payload = json.loads((tmp_path / "overload_l1.json").read_text())
        assert payload["runs"][0]["governor"] == "PPM"
        assert path.endswith("overload_l1.txt")


class TestParallelEquivalence:
    def test_jobs_do_not_change_results(self, result):
        parallel = run_overload(
            governors=["PPM"],
            duration_s=DURATION_S,
            warmup_s=WARMUP_S,
            seed=3,
            jobs=2,
        )
        assert parallel.to_json() == result.to_json()


class TestOverloadSoak:
    def test_soak_overlays_faults_and_crowds(self, tmp_path):
        result = run_overload_soak(
            governors=["PPM"], duration_s=25.0, warmup_s=3.0, seed=2
        )
        run = result.runs[0]
        assert run.offered > 0
        assert run.audit_violations == 0
        assert result.windows  # compound faults actually scheduled
        assert result.tdp_w == OVERLOAD_TDP_W
        path = write_report(result, out_dir=str(tmp_path))
        assert "p99 miss" in (tmp_path / "overload_soak_m2.txt").read_text()
        assert path.endswith("overload_soak_m2.txt")

"""Checkpoint-at-T + resume must equal the uninterrupted run, bit for bit."""

import os

import pytest

from repro.checkpoint import (
    CheckpointFingerprintError,
    CheckpointManager,
    SnapshotRestoreError,
    resume_from,
    tick_records,
)
from repro.experiments.campaigns import (
    CAMPAIGN_FAULTS,
    build_campaign_schedule,
    resume_fault_campaign,
    run_fault_campaign,
)
from repro.experiments import scenario
from repro.experiments.harness import make_governor
from repro.faults import FaultInjector
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import build_workload

DURATION_S = 6.0


def build_sim(seed=11, governor="PPM", fault=None):
    chip = tc2_chip()
    tasks = build_workload("m1")
    gov = make_governor(governor, power_cap_w=10.0)
    sim = Simulation(
        chip,
        tasks,
        gov,
        config=SimConfig(seed=seed, metrics_warmup_s=1.0, audit=True),
    )
    if fault is not None:
        schedule = build_campaign_schedule(
            CAMPAIGN_FAULTS[fault], DURATION_S + 4.0, 1.0, 0.4, chip
        )
        FaultInjector(sim, schedule).attach()
    return sim


def run_with_checkpoints(tmp_path, duration_s=DURATION_S, **kwargs):
    sim = build_sim(**kwargs)
    manager = CheckpointManager(
        str(tmp_path), interval_s=1.0, retention=None
    ).attach(sim)
    sim.run(duration_s)
    return sim, manager


class TestResumeIdentity:
    def test_checkpointing_does_not_perturb_the_run(self, tmp_path):
        baseline = build_sim()
        baseline.run(DURATION_S)
        checkpointed, _ = run_with_checkpoints(tmp_path)
        assert tick_records(baseline.metrics) == tick_records(
            checkpointed.metrics
        )

    def test_resume_midway_matches_uninterrupted(self, tmp_path):
        baseline = build_sim()
        baseline.run(DURATION_S)
        _, manager = run_with_checkpoints(tmp_path)
        midpoint = manager.checkpoints()[2]  # tick 300 of 600
        sim, envelope = resume_from(midpoint, build_sim)
        assert envelope.tick_index == 300
        sim.run(DURATION_S - sim.now)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)

    def test_resume_midway_under_faults(self, tmp_path):
        duration = DURATION_S + 4.0
        baseline = build_sim(fault="sensor-dropout")
        baseline.run(duration)
        _, manager = run_with_checkpoints(
            tmp_path, duration_s=duration, fault="sensor-dropout"
        )
        midpoint = manager.checkpoints()[4]
        sim, _ = resume_from(
            midpoint, lambda: build_sim(fault="sensor-dropout")
        )
        sim.run(duration - sim.now)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)

    @pytest.mark.parametrize("governor", ["HPM", "HL"])
    def test_resume_non_market_governors(self, tmp_path, governor):
        baseline = build_sim(governor=governor)
        baseline.run(DURATION_S)
        _, manager = run_with_checkpoints(tmp_path, governor=governor)
        midpoint = manager.checkpoints()[2]
        sim, _ = resume_from(midpoint, lambda: build_sim(governor=governor))
        sim.run(DURATION_S - sim.now)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)


class TestResumeRefusals:
    def test_different_seed_is_refused(self, tmp_path):
        _, manager = run_with_checkpoints(tmp_path)
        with pytest.raises(CheckpointFingerprintError, match="different run"):
            resume_from(manager.checkpoints()[0], lambda: build_sim(seed=12))

    def test_different_governor_is_refused(self, tmp_path):
        _, manager = run_with_checkpoints(tmp_path)
        with pytest.raises(CheckpointFingerprintError, match="different run"):
            resume_from(
                manager.checkpoints()[0], lambda: build_sim(governor="HL")
            )

    def test_missing_injector_is_refused(self, tmp_path):
        _, manager = run_with_checkpoints(tmp_path, fault="sensor-stuck")
        with pytest.raises(SnapshotRestoreError, match="fault injector"):
            resume_from(manager.checkpoints()[0], build_sim)


class TestManagerPolicy:
    def test_retention_prunes_oldest(self, tmp_path):
        sim = build_sim()
        manager = CheckpointManager(
            str(tmp_path), interval_s=1.0, retention=2
        ).attach(sim)
        sim.run(DURATION_S)
        names = [os.path.basename(p) for p in manager.checkpoints()]
        assert names == ["ckpt_0000000500.json", "ckpt_0000000600.json"]

    def test_interval_controls_cadence(self, tmp_path):
        sim = build_sim()
        manager = CheckpointManager(
            str(tmp_path), interval_s=2.0, retention=None
        ).attach(sim)
        sim.run(DURATION_S)
        assert manager.saves == 3

    def test_streams_do_not_prune_each_other(self, tmp_path):
        sim_a = build_sim()
        manager_a = CheckpointManager(
            str(tmp_path), interval_s=1.0, retention=1, stream="0-PPM"
        ).attach(sim_a)
        sim_a.run(2.0)
        sim_b = build_sim()
        manager_b = CheckpointManager(
            str(tmp_path), interval_s=1.0, retention=1, stream="1-PPM"
        ).attach(sim_b)
        sim_b.run(2.0)
        assert len(manager_a.checkpoints()) == 1
        assert len(manager_b.checkpoints()) == 1

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), interval_s=0.0)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), retention=0)


class TestCampaignResume:
    def _run(self, checkpoint_dir=None):
        return run_fault_campaign(
            "sensor-stuck",
            governors=("PPM", "HL"),
            workload="m1",
            duration_s=10.0,
            warmup_s=2.0,
            intensity=0.4,
            seed=5,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval_s=2.0,
        )

    def test_killed_campaign_resumes_to_identical_result(self, tmp_path):
        uninterrupted = self._run()
        directory = str(tmp_path)
        self._run(checkpoint_dir=directory)
        # Emulate a SIGKILL mid governor 0: only one early checkpoint left
        # in its point directory, no journal/result, governor 1 never
        # started.  The campaign manifest is deleted too, so resume must
        # fall back to the identity embedded in the checkpoint.
        point_dir = os.path.join(directory, "point_0-PPM")
        survivor = os.path.join(point_dir, "ckpt_0-PPM_0000000600.json")
        for root, _dirs, files in os.walk(directory):
            for name in files:
                path = os.path.join(root, name)
                if path != survivor:
                    os.unlink(path)
        resumed = resume_fault_campaign(directory, checkpoint_interval_s=2.0)
        assert resumed.to_json() == uninterrupted.to_json()
        # Resume regenerates the journals for replay verification.
        assert os.path.exists(os.path.join(point_dir, "journal.json"))
        assert os.path.exists(
            os.path.join(directory, "point_1-HL", "journal.json")
        )

    def test_partly_run_points_resume_in_parallel(self, tmp_path, monkeypatch):
        uninterrupted = self._run()
        directory = str(tmp_path)
        self._run(checkpoint_dir=directory)
        # Emulate a SIGKILL with both points mid-run: each keeps one early
        # checkpoint, neither has a journal or a result.
        survivors = {
            os.path.join(directory, "campaign.json"),
            os.path.join(directory, "point_0-PPM", "ckpt_0-PPM_0000000600.json"),
            os.path.join(directory, "point_1-HL", "ckpt_1-HL_0000000800.json"),
        }
        for root, _dirs, files in os.walk(directory):
            for name in files:
                path = os.path.join(root, name)
                if path not in survivors:
                    os.unlink(path)
        fanned_out = []
        execute_points = scenario.execute_points

        def recording_execute_points(specs, jobs=None):
            fanned_out.extend(spec.fn.__name__ for spec in specs)
            return execute_points(specs, jobs=jobs)

        monkeypatch.setattr(scenario, "execute_points", recording_execute_points)
        resumed = resume_fault_campaign(
            directory, checkpoint_interval_s=2.0, jobs=2
        )
        # Both interrupted points went through the worker fan-out.
        assert fanned_out == ["_resume_point", "_resume_point"]
        assert resumed.to_json() == uninterrupted.to_json()

    def test_campaign_checkpointing_is_observation_free(self, tmp_path):
        with_checkpoints = self._run(checkpoint_dir=str(tmp_path))
        without = self._run()
        assert with_checkpoints.to_json() == without.to_json()

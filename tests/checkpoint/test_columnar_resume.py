"""Columnar-engine checkpointing: bit-exact snapshot, resume, and replay.

The columnar engine keeps the object graph authoritative through
write-through, so a snapshot taken mid-run under either engine must be
byte-identical to the other's, and a snapshot taken under one engine
must restore into the other with telemetry identical to the donor's
uninterrupted run.  The engine is deliberately not part of the
checkpoint fingerprint -- these tests are what make that safe.  Each
loop is forced at the m1 set's size by constructing its class directly;
``Simulation(...)`` itself picks the loop from the task count
(:class:`TestLoopSelection`).
"""

import os

import pytest

from repro.checkpoint import (
    CheckpointManager,
    replay_from_checkpoint,
    resume_from,
    tick_records,
)
from repro.experiments.harness import make_governor
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import VEC_MIN_TASKS
from repro.tasks import build_workload, random_tasks

DURATION_S = 5.0


def build_sim(loop, seed=11, governor="PPM"):
    # object.__new__ skips the task-count dispatch, forcing ``loop``.
    sim = object.__new__(loop)
    sim.__init__(
        tc2_chip(),
        build_workload("m1"),
        make_governor(governor, power_cap_w=10.0),
        config=SimConfig(seed=seed, metrics_warmup_s=1.0, audit=True),
    )
    return sim


def run_with_checkpoints(tmp_path, loop, subdir):
    directory = os.path.join(str(tmp_path), subdir)
    sim = build_sim(loop)
    manager = CheckpointManager(
        directory, interval_s=1.0, retention=None
    ).attach(sim)
    sim.run(DURATION_S)
    return sim, manager


class TestColumnarSnapshotIdentity:
    def test_checkpoint_files_are_byte_identical_across_engines(
        self, tmp_path
    ):
        """Write-through leaves nothing engine-specific in a snapshot."""
        _, columnar = run_with_checkpoints(tmp_path, ColumnarSimulation, "columnar")
        _, obj = run_with_checkpoints(tmp_path, Simulation, "object")
        col_paths = columnar.checkpoints()
        obj_paths = obj.checkpoints()
        assert len(col_paths) == len(obj_paths) == 5
        for col_path, obj_path in zip(col_paths, obj_paths):
            with open(col_path, "rb") as handle:
                col_bytes = handle.read()
            with open(obj_path, "rb") as handle:
                obj_bytes = handle.read()
            assert col_bytes == obj_bytes, os.path.basename(col_path)

    def test_checkpointing_does_not_perturb_columnar_run(self, tmp_path):
        baseline = build_sim(ColumnarSimulation)
        baseline.run(DURATION_S)
        checkpointed, _ = run_with_checkpoints(tmp_path, ColumnarSimulation, "ckpt")
        assert tick_records(checkpointed.metrics) == tick_records(
            baseline.metrics
        )


class TestColumnarResume:
    def test_resume_midway_matches_uninterrupted(self, tmp_path):
        baseline = build_sim(ColumnarSimulation)
        baseline.run(DURATION_S)
        _, manager = run_with_checkpoints(tmp_path, ColumnarSimulation, "ckpt")
        midpoint = manager.checkpoints()[2]
        sim, envelope = resume_from(midpoint, lambda: build_sim(ColumnarSimulation))
        assert envelope.tick_index == 300
        sim.run(DURATION_S - sim.now)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)

    @pytest.mark.parametrize(
        "donor,restorer",
        [(ColumnarSimulation, Simulation), (Simulation, ColumnarSimulation)],
        ids=["columnar-to-object", "object-to-columnar"],
    )
    def test_cross_engine_restore_is_exact(self, tmp_path, donor, restorer):
        """A snapshot restores into either engine with identical telemetry."""
        baseline = build_sim(donor)
        baseline.run(DURATION_S)
        _, manager = run_with_checkpoints(tmp_path, donor, "ckpt")
        midpoint = manager.checkpoints()[2]
        sim, _ = resume_from(midpoint, lambda: build_sim(restorer))
        sim.run(DURATION_S - sim.now)
        assert tick_records(sim.metrics) == tick_records(baseline.metrics)


class TestColumnarReplay:
    def test_clean_replay_from_columnar_checkpoint(self, tmp_path):
        sim, manager = run_with_checkpoints(tmp_path, ColumnarSimulation, "ckpt")
        records = tick_records(sim.metrics)
        report = replay_from_checkpoint(
            manager.checkpoints()[1], lambda: build_sim(ColumnarSimulation), records
        )
        assert report.clean
        assert report.first_divergent_tick is None

    def test_cross_engine_replay_verifies_clean(self, tmp_path):
        """Object-engine journal replays divergence-free under columnar."""
        sim, manager = run_with_checkpoints(tmp_path, Simulation, "ckpt")
        records = tick_records(sim.metrics)
        report = replay_from_checkpoint(
            manager.checkpoints()[1], lambda: build_sim(ColumnarSimulation), records
        )
        assert report.clean


def _loop_for(tasks):
    return type(
        Simulation(tc2_chip(), tasks, make_governor("PPM", power_cap_w=4.0))
    )


class TestLoopSelection:
    """``Simulation(...)`` picks the loop from the task count alone."""

    def test_paper_workload_runs_the_object_loop(self):
        assert _loop_for(build_workload("m2")) is Simulation

    def test_crossover_switches_to_columns(self):
        below = random_tasks(VEC_MIN_TASKS - 1, seed=3)
        assert _loop_for(below) is Simulation
        at = random_tasks(VEC_MIN_TASKS, seed=3)
        assert _loop_for(at) is ColumnarSimulation

    def test_columnar_constructor_forces_columns(self):
        sim = ColumnarSimulation(
            tc2_chip(),
            build_workload("m2"),
            make_governor("PPM", power_cap_w=4.0),
        )
        assert type(sim) is ColumnarSimulation
        assert sim.sync_mode == "lazy"

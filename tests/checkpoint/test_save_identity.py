"""Every file a CheckpointManager writes equals the full-snapshot oracle.

A manager caches the telemetry rows it has already encoded and splices
them into each save.  The oracle here ignores that machinery: it builds
the envelope from :func:`snapshot_simulation` with one ``json.dumps``,
the way a checkpoint file has always been written, and every file must
match it byte for byte.  The cases cover both optional ``TickSample``
fields, the columnar loop, restores and in-place edits under a manager
that already holds cached rows, and a fleet worker saving epoch after
epoch.
"""

import dataclasses
import json
import multiprocessing
import os

from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    payload_checksum,
    resume_from,
)
from repro.checkpoint.snapshot import snapshot_simulation
from repro.core import AdmissionConfig, AdmissionController, OverloadManager
from repro.core.powerest import EstimationConfig
from repro.experiments.harness import make_governor
from repro.fleet.protocol import poll_message
from repro.fleet.worker import ChipSpec, WorkerRuntime
from repro.hw import ThermalConfig, ThermalProtectionConfig, tc2_chip
from repro.sim import SimConfig, Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import VEC_MIN_TASKS
from repro.tasks import ArrivalConfig, ArrivalStream, build_workload, random_tasks


def reference_bytes(sim, manager):
    payload = snapshot_simulation(sim)
    if manager.extra_payload is not None:
        payload["extra"] = manager.extra_payload
    envelope = {
        "magic": "repro-checkpoint",
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "fingerprint": manager.fingerprint,
        "tick_index": sim.tick_index,
        "sim_time_s": sim.now,
        "payload_sha256": payload_checksum(payload),
        "payload": payload,
    }
    return json.dumps(envelope).encode("utf-8")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class OracleManager(CheckpointManager):
    """Checks each file against the oracle right after writing it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def save(self, sim):
        path = super().save(sim)
        assert read_bytes(path) == reference_bytes(sim, self), path
        self.checked += 1
        return path


def build_churn_sim(seed=11):
    """Arrivals, estimated power and thermal protection on one chip."""
    sim = Simulation(
        tc2_chip(),
        build_workload("l1"),
        make_governor("PPM", power_cap_w=10.0),
        config=SimConfig(
            seed=seed,
            metrics_warmup_s=1.0,
            estimation=EstimationConfig(warmup_ticks=50),
            thermal=ThermalConfig(protection=ThermalProtectionConfig()),
        ),
    )
    arrivals = ArrivalConfig(
        process="flash-crowd",
        rate_hz=2.0,
        burst_rate_hz=12.0,
        burst_start_s=1.0,
        burst_duration_s=1.5,
        lifetime_s=(0.5, 1.5),
    )
    OverloadManager(
        ArrivalStream(arrivals, seed), AdmissionController(AdmissionConfig())
    ).attach(sim)
    return sim


def test_object_loop_with_every_optional_field(tmp_path):
    sim = build_churn_sim()
    manager = OracleManager(
        str(tmp_path), interval_s=0.5, retention=None
    ).attach(sim)
    sim.run(3.0)
    assert type(sim) is Simulation
    sample = sim.metrics.samples[-1]
    assert sample.cluster_temperature_c is not None
    assert sample.estimated_chip_power_w is not None
    assert sim.arrivals.spawned_tasks
    assert manager.checked == 6


def test_columnar_loop(tmp_path):
    sim = Simulation(
        tc2_chip(),
        random_tasks(VEC_MIN_TASKS, seed=3),
        make_governor("PPM", power_cap_w=6.0),
        config=SimConfig(seed=3, metrics_warmup_s=0.5),
    )
    assert isinstance(sim, ColumnarSimulation)
    manager = OracleManager(
        str(tmp_path), interval_s=0.25, retention=2
    ).attach(sim)
    sim.run(1.5)
    assert manager.checked == 6


def donor_checkpoints(directory, seed):
    donor = build_churn_sim(seed)
    manager = CheckpointManager(
        directory, interval_s=0.5, retention=None
    ).attach(donor)
    donor.run(2.5)
    return manager.checkpoints()


def test_restore_under_a_manager_with_cached_rows(tmp_path):
    other_seed = donor_checkpoints(str(tmp_path / "seed12"), 12)
    same_seed = donor_checkpoints(str(tmp_path / "seed11"), 11)
    sim = build_churn_sim()
    manager = OracleManager(
        str(tmp_path / "run"), interval_s=0.5, retention=None
    ).attach(sim)
    sim.run(2.5)
    # Shorter: 1 s of another seed's run, while 2.5 s of rows are cached.
    restored, _ = resume_from(other_seed[1], lambda: build_churn_sim(12))
    manager.attach(restored)
    restored.run(1.0)
    # Longer: 2.5 s of this seed's run, while 2 s of the other seed's
    # rows are cached -- only the list identity tells them apart.
    restored, _ = resume_from(same_seed[4], build_churn_sim)
    manager.attach(restored)
    restored.run(0.5)
    assert manager.checked == 5 + 2 + 1


def test_in_place_edits_of_the_samples_list(tmp_path):
    sim = build_churn_sim()
    manager = OracleManager(
        str(tmp_path), interval_s=1e9, retention=None
    ).attach(sim)
    sim.run(1.0)
    manager.save(sim)
    samples = sim.metrics.samples
    del samples[50:]  # same list, shrunk
    manager.save(sim)
    # Same list and length, but a different last row object.
    samples[-1] = dataclasses.replace(samples[-1], chip_power_w=-1.0)
    manager.save(sim)
    assert manager.checked == 3


def test_fleet_worker_saves_across_epochs(tmp_path):
    spec = ChipSpec(chip_id="chip00", workload="m2", seed=12)
    parent, child = multiprocessing.Pipe()
    try:
        runtime = WorkerRuntime(
            child, spec, {"fleet": "oracle"}, str(tmp_path)
        )
        paths = [runtime._last_checkpoint]
        for epoch in range(4):
            runtime._run_epoch(
                {"epoch": epoch, "budget_w": 3.0, "duration_s": 0.3}
            )
            paths.append(runtime._last_checkpoint)
            path = os.path.join(str(tmp_path), runtime._last_checkpoint)
            assert read_bytes(path) == reference_bytes(
                runtime.sim, runtime.manager
            )
            while poll_message(parent, 0.0) is not None:
                pass  # drain results and heartbeats
        assert len(set(paths)) == 5
    finally:
        parent.close()
        child.close()

"""The benchmark's four workloads and the operation each one repeats.

Every workload repeats one fixed-size *operation* until its time budget
is spent, so every operation of a run does identical simulated work and
its telemetry digest must repeat exactly:

* single-chip workloads (``paper``, ``scale_1k``, ``churn_ckpt``): one
  operation is a fresh simulation run for a fixed number of 10 ms ticks;
* ``fleet``: one operation is a fresh fault-free fleet campaign, which
  counts as ``chips * epochs`` chip-epochs.

Host time is measured from outside: the benchmark drives
``Simulation.step`` itself and times each call, and times fleet epochs
through the supervisor's calls into ``repro.fleet`` and
``repro.checkpoint``.  Simulated statistics are checked, never scored.

The workloads are built from the packages' public APIs only, never from
``repro.experiments``, whose harnesses are due to be replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.checkpoint import (
    CheckpointManager,
    canonical_json,
    read_checkpoint,
    restore_simulation,
    simulation_fingerprint,
    tick_records,
)
from repro.core import (
    AdmissionConfig,
    AdmissionController,
    EstimationConfig,
    MarketConfig,
    OverloadManager,
    PPMConfig,
    PPMGovernor,
)
from repro.faults import FaultInjector, FaultKind, single_fault
from repro.fleet import (
    ChipSpec,
    FleetBudgetConfig,
    FleetConfig,
    FleetSupervisor,
    build_chip_simulation,
)
from repro.hw import tc2_chip
from repro.hw.thermal import ThermalConfig, ThermalProtectionConfig
from repro.sim import SimConfig, Simulation
from repro.tasks import (
    ArrivalConfig,
    ArrivalStream,
    build_workload,
    random_tasks,
    sustainable_rate_hz,
)

from tracer import TARGETS, Tracer

_now = time.perf_counter_ns

DT_S = 0.01
#: Simulated length of one epoch: a fleet epoch, and the block of ticks
#: one single-chip ``epoch_p50_ms`` sample sums.
EPOCH_S = 0.5
EPOCH_TICKS = round(EPOCH_S / DT_S)

#: churn_ckpt: the overload experiments' setting -- a 10 W cap, so the
#: arrivals rather than the power budget bind, and a flash crowd at 3x
#: the sustainable rate over a base of half of it.
CHURN_CAP_W = 10.0
#: churn_ckpt run length and checkpoint interval.  A save carries the
#: whole telemetry so far, so its cost grows with elapsed time: one save
#: at the final tick is about 40% of the run's step time on a 2-core
#: VM, a second one mid-run would make saves the majority.  The final
#: checkpoint is the one the read-back restores.
CHURN_S = 10.0
CHURN_CHECKPOINT_S = CHURN_S

#: fleet: two chips keep the worker count at a 2-core host's ``nproc``;
#: each chip gets 3 W of grid budget (scarcer than its 8 W TDP, so the
#: auction arbitrates) and its own region and electricity price.
FLEET_EPOCHS = 8
FLEET_CHIP_BUDGET_W = 3.0
FLEET_CHIPS = (("m2", "ap-south"), ("l1", "eu-west"))
FLEET_REGION_PRICES = {"ap-south": 0.9, "eu-west": 1.15, "us-east": 1.0}


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def telemetry_digest(sim) -> str:
    """sha256 of the run's canonical per-tick telemetry."""
    return digest(tick_records(sim.metrics))


@dataclass
class OpResult:
    """One operation's host-time samples and correctness facts."""

    units: int  # operations it counts as: 1 run, or chips * epochs
    digest: str
    engine: str
    sync_mode: str
    setup_ns: int
    ticks: int  # timed ticks (chip-ticks for fleet), set-up excluded
    #: Samples whose sum is the host time of those ticks: one per tick
    #: (single chip) or one per epoch (fleet), in the same order in
    #: every operation of a run.
    busy_ns: List[int]
    tick_ns: List[float]  # host time of one tick (one chip-tick, fleet)
    epoch_ns: List[int]  # host time of one EPOCH_S epoch
    rss_kb: int = 0  # peak RSS of the op's child processes (fleet)
    counters: Dict[str, float] = field(default_factory=dict)
    last_checkpoint: Optional[str] = None
    #: Reference-host time per host time during the op (see calibrate.py).
    speed: float = 1.0


def _tracing(tracer: Optional[Tracer]):
    return contextlib.nullcontext() if tracer is None else tracer.installed()


# ---------------------------------------------------------------------------
# Single-chip workloads
# ---------------------------------------------------------------------------
def capped_ppm(cap_w: float) -> PPMGovernor:
    return PPMGovernor(PPMConfig(market=MarketConfig(wtdp=cap_w)))


def build_paper(seed: int, scratch: Optional[str]) -> Simulation:
    """PPM on the paper's m2 set, TC2, 4 W cap; no optional subsystem."""
    return Simulation(
        tc2_chip(),
        build_workload("m2"),
        capped_ppm(4.0),
        config=SimConfig(seed=seed),
    )


def build_scale_1k(seed: int, scratch: Optional[str]) -> Simulation:
    """1,000 random tasks under default PPM on TC2."""
    return Simulation(
        tc2_chip(),
        random_tasks(1000, seed=seed),
        PPMGovernor(),
        config=SimConfig(seed=seed),
    )


def build_churn(seed: int, scratch: Optional[str]) -> Simulation:
    """Flash crowd through admission on l1 under estimated power with a
    drift fault and thermal protection; checkpoints into ``scratch``
    unless it is None."""
    chip = tc2_chip()
    sim = Simulation(
        chip,
        build_workload("l1"),
        capped_ppm(CHURN_CAP_W),
        config=SimConfig(
            seed=seed,
            estimation=EstimationConfig(),
            thermal=ThermalConfig(protection=ThermalProtectionConfig()),
        ),
    )
    sustainable = sustainable_rate_hz(chip, ArrivalConfig())
    arrivals = ArrivalConfig(
        process="flash-crowd",
        rate_hz=0.5 * sustainable,
        burst_rate_hz=3.0 * sustainable,
        burst_start_s=sim.config.metrics_warmup_s + 2.0,
        burst_duration_s=4.0,
        lifetime_s=(1.5, 4.0),
    )
    OverloadManager(
        ArrivalStream(arrivals, seed=seed),
        AdmissionController(AdmissionConfig()),
    ).attach(sim)
    drift = single_fault(
        FaultKind.POWER_MODEL_DRIFT,
        CHURN_S / 2.0,
        CHURN_S / 4.0,
        target="big",
        magnitude=3.0,
    )
    FaultInjector(sim, drift).attach()
    if scratch is not None:
        CheckpointManager(scratch, interval_s=CHURN_CHECKPOINT_S).attach(sim)
    return sim


@dataclass(frozen=True)
class SingleChip:
    build: Callable[[int, Optional[str]], Simulation]
    ticks: int  # ticks per operation, the set-up tick included
    units = 1  # a run is one operation

    def run_op(self, seed: int, scratch: str, tracer: Optional[Tracer]) -> OpResult:
        """One fresh run: set-up through the first tick, then timed ticks."""
        with _tracing(tracer):
            start = _now()
            sim = self.build(seed, scratch)
            step = sim.step if tracer is None else tracer.wrap("sim.step", sim.step)
            step()
            setup_ns = _now() - start
            samples = [0] * (self.ticks - 1)
            for i in range(self.ticks - 1):
                t0 = _now()
                step()
                samples[i] = _now() - t0
        sim.sync()  # the end-of-run barrier, outside every step
        counters = {}
        if sim.arrivals is not None:
            stats = sim.arrivals.stats()
            counters = {
                "core.arrivals_offered": stats["offered"],
                "core.arrivals_admitted": stats["admitted"],
                "core.arrivals_shed": stats["shed_tasks"],
            }
        return OpResult(
            units=self.units,
            digest=telemetry_digest(sim),
            engine=type(sim).__name__,
            sync_mode=getattr(sim, "sync_mode", "n/a"),
            setup_ns=setup_ns,
            ticks=len(samples),
            busy_ns=samples,
            tick_ns=samples,
            epoch_ns=[
                sum(samples[i : i + EPOCH_TICKS])
                for i in range(0, len(samples) - EPOCH_TICKS + 1, EPOCH_TICKS)
            ],
            counters=counters,
            last_checkpoint=(
                sim.checkpointer.checkpoints()[-1] if sim.checkpointer else None
            ),
        )


def churn_readback(seed: int, path: str, expected: str) -> None:
    """Read ``path`` back (checksum, fingerprint) and restore it.

    The checkpoint was taken at the run's final tick, so the restored
    telemetry must carry the run's digest ``expected``.
    """
    sim = build_churn(seed, None)
    envelope = read_checkpoint(path, expected_fingerprint=simulation_fingerprint(sim))
    restore_simulation(sim, envelope.payload)
    restored = telemetry_digest(sim)
    if restored != expected:
        raise ValueError(
            f"restored telemetry digest {restored[:12]} differs from the "
            f"run's {expected[:12]}"
        )


# ---------------------------------------------------------------------------
# Fleet
# ---------------------------------------------------------------------------
#: The supervisor calls an untraced fleet operation still times: its
#: epochs are read off these spans' call stamps.
EPOCH_TARGETS = [
    target
    for target in TARGETS
    if target[2] in ("fleet.request", "fleet.auction", "fleet.manifest")
]


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Fleet:
    """A fault-free 2-chip campaign (m2 and l1, different regions)."""

    units = len(FLEET_CHIPS) * FLEET_EPOCHS

    def run_op(self, seed: int, scratch: str, tracer: Optional[Tracer]) -> OpResult:
        config = FleetConfig(
            chips=tuple(
                ChipSpec(
                    chip_id=f"chip{i:02d}",
                    workload=workload,
                    seed=seed + i,
                    region=region,
                )
                for i, (workload, region) in enumerate(FLEET_CHIPS)
            ),
            epochs=FLEET_EPOCHS,
            epoch_s=EPOCH_S,
            budget=FleetBudgetConfig(
                grid_budget_w=len(FLEET_CHIPS) * FLEET_CHIP_BUDGET_W,
                region_prices=dict(FLEET_REGION_PRICES),
            ),
        )
        # A traced op stamps every span; an untraced one only its epochs'.
        timer = Tracer() if tracer is None else tracer
        timer.stamps = []
        worker_rss_kb = 0
        with timer.installed(EPOCH_TARGETS if tracer is None else TARGETS):
            start = _now()
            supervisor = FleetSupervisor(config, scratch)
            report = supervisor.report

            def report_before_shutdown():
                # Workers are still up here; read their peak RSS.
                nonlocal worker_rss_kb
                worker_rss_kb = sum(
                    _vm_hwm_kb(handle.process.pid)
                    for handle in supervisor.handles.values()
                    if handle.process is not None
                )
                return report()

            supervisor.report = report_before_shutdown
            data = supervisor.run()
        stamps, timer.stamps = timer.stamps, None
        # Workers do not report their engine.  They build their chips
        # with build_chip_simulation in this environment, which they
        # inherit; building one here infers the engine they ran.
        probe = build_chip_simulation(config.chips[0])
        violations = data["audit"]["violations"]
        incomplete = [
            chip_id
            for chip_id, chip in data["chips"].items()
            if chip["completed_epochs"] != FLEET_EPOCHS
        ]
        if violations or incomplete:
            raise ValueError(
                f"fleet campaign unclean: {len(violations)} audit "
                f"violation(s), incomplete chips {incomplete}"
            )
        requests = [(s, e) for name, s, e in stamps if name == "fleet.request"]
        auctions = [s for name, s, _ in stamps if name == "fleet.auction"]
        manifests = [e for name, _, e in stamps if name == "fleet.manifest"]
        # An epoch runs from its auction to the end of its manifest write;
        # set-up (spawn until every worker said hello) precedes the first.
        epoch_ns = [end - begin for begin, end in zip(auctions, manifests)]
        return OpResult(
            units=self.units,
            digest=digest(data["rows"]),
            engine=f"{type(probe).__name__} (inferred)",
            sync_mode=getattr(probe, "sync_mode", "n/a"),
            setup_ns=requests[0][0] - start,
            ticks=len(FLEET_CHIPS) * FLEET_EPOCHS * EPOCH_TICKS,
            busy_ns=epoch_ns,
            tick_ns=[(end - begin) / EPOCH_TICKS for begin, end in requests],
            epoch_ns=epoch_ns,
            rss_kb=worker_rss_kb,
            counters={"fleet.spawn_ms": (auctions[0] - start) / 1e6},
        )


WORKLOADS = {
    "paper": SingleChip(build_paper, ticks=3001),
    "scale_1k": SingleChip(build_scale_1k, ticks=201),
    "churn_ckpt": SingleChip(build_churn, ticks=round(CHURN_S / DT_S)),
    "fleet": Fleet(),
}

"""Fault campaigns: sweep injected faults and report resilience metrics.

A campaign drives one workload under several governors through the same
:class:`~repro.faults.FaultSchedule` and reports how each policy degrades
and recovers:

* QoS inside vs. outside the fault windows (the price of a fault);
* time-to-recover after the last window closes (hot-replug latency);
* TDP-violation seconds (how long the cap was broken, e.g. while the
  power sensor was blind);
* market audit violations (PPM only -- the books must survive faults).

Reports land in ``results/campaign_<fault>.txt`` (+ ``.json``) through
:func:`~repro.experiments.scenario.write_report`, and the CLI exposes
this as ``repro-experiments campaign --fault <kind>``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..checkpoint import (
    CheckpointError,
    CheckpointManager,
    ReplayReport,
    atomic_write_text,
    read_checkpoint,
    read_journal,
    replay_from_checkpoint,
    resume_from,
    tick_records,
    write_journal,
)
from ..checkpoint.store import CHECKPOINT_GLOB_RE
from ..faults import (
    COUNTER_FAULTS,
    FLEET_FAULTS,
    THERMAL_FAULTS,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    parse_fault_kind,
    periodic_faults,
)
from ..hw import tc2_chip
from ..sim import Simulation
from .harness import capped_tdp_w
from .scenario import (
    Column,
    Report,
    build_simulation,
    fan_out,
    governor_grid,
    peak_temperature_c,
    point_identity,
    seconds_or_never,
)

#: CLI spellings of the single-chip injectable fault kinds.  Fleet-tier
#: kinds (``FLEET_FAULTS``) address worker *processes*, which a one-chip
#: campaign does not have -- they are the ``fleet`` command's business
#: (see :mod:`repro.experiments.fleet`), so they are excluded here and
#: :func:`run_fault_campaign` refuses them with a pointer.
CAMPAIGN_FAULTS: Dict[str, FaultKind] = {
    kind.value: kind for kind in FaultKind if kind not in FLEET_FAULTS
}

#: Governors every campaign exercises by default.
DEFAULT_CAMPAIGN_GOVERNORS: Tuple[str, ...] = ("PPM", "HPM", "HL")

@dataclass
class CampaignRun:
    """Resilience summary of one governor under one fault schedule."""

    governor: str
    fault: str
    intensity: float
    miss_fraction_in_fault: float
    miss_fraction_outside_fault: float
    recovery_time_s: Optional[float]
    tdp_violation_s: float
    average_power_w: float
    audit_violations: int
    fault_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def qos_degradation(self) -> float:
        """Extra miss time a fault window costs over fault-free operation."""
        return self.miss_fraction_in_fault - self.miss_fraction_outside_fault


@dataclass
class CampaignResult(Report):
    """One campaign: a fault kind swept across governors."""

    fault: str
    workload: str
    duration_s: float
    intensity: float
    tdp_w: float
    windows: List[Tuple[float, float]]
    runs: List[CampaignRun] = field(default_factory=list)

    REPORT_STEM = "campaign_{fault}"
    COLUMNS = (
        Column("governor", "<10", lambda r: r.governor),
        Column("miss in-fault", ">13", lambda r: r.miss_fraction_in_fault, ".3f"),
        Column("miss outside", ">13", lambda r: r.miss_fraction_outside_fault, ".3f"),
        Column("recovery (s)", ">13", lambda r: seconds_or_never(r.recovery_time_s)),
        Column("TDP-viol (s)", ">13", lambda r: r.tdp_violation_s, ".2f"),
        Column("avg W", ">7", lambda r: r.average_power_w, ".2f"),
        Column("audits", ">7", lambda r: r.audit_violations, "d"),
    )

    def header(self) -> str:
        return (
            f"Fault campaign: {self.fault}  (workload {self.workload}, "
            f"{self.duration_s:.0f} s, intensity {self.intensity:.2f}, "
            f"TDP {self.tdp_w:.1f} W, {len(self.windows)} fault windows)"
        )


def build_campaign_schedule(
    fault: FaultKind,
    duration_s: float,
    warmup_s: float,
    intensity: float,
    chip,
) -> FaultSchedule:
    """Evenly spaced fault windows covering ``intensity`` of the run.

    Windows start after the warm-up (so fault-free QoS is measurable) and
    stop early enough to observe recovery.  Cluster-scoped faults target
    the fastest cluster -- losing the big cores is the hard case -- and
    sensor/task faults apply chip-wide.
    """
    if not 0.0 < intensity <= 0.8:
        raise ValueError("intensity must be in (0, 0.8]")
    target: Optional[str] = None
    if (
        fault
        in (
            FaultKind.HOTPLUG,
            FaultKind.DVFS_DROP,
            FaultKind.DVFS_DELAY,
            FaultKind.POWER_MODEL_DRIFT,
        )
        or fault in THERMAL_FAULTS
        or fault in COUNTER_FAULTS
    ):
        target = max(chip.clusters, key=lambda c: c.max_supply_pus).cluster_id
    period_s = 12.0 if fault is FaultKind.HOTPLUG else 8.0
    window_s = min(intensity * period_s, period_s - 1.0)
    start_s = warmup_s + 2.0
    until_s = max(start_s + 1e-9, duration_s - period_s * 0.5)
    kwargs = {}
    if fault is FaultKind.SENSOR_SPIKE:
        kwargs["magnitude"] = 4.0
    elif fault is FaultKind.COOLING_DEGRADED:
        kwargs["magnitude"] = 3.0  # heatsink sheds heat 3x more slowly
    elif fault is FaultKind.THERMAL_RUNAWAY:
        kwargs["magnitude"] = 12.0  # watts of unaccounted heat
    elif fault is FaultKind.COUNTER_BIAS:
        kwargs["magnitude"] = 3.0  # counters read 3x their true value
    elif fault is FaultKind.POWER_MODEL_DRIFT:
        kwargs["magnitude"] = 2.0  # draw ramps to 3x the model over a window
    return periodic_faults(
        fault,
        period_s=period_s,
        duration_s=window_s,
        until_s=until_s,
        start_s=start_s,
        target=target,
        **kwargs,
    )


def _campaign_schedule(identity: Dict[str, object]) -> FaultSchedule:
    return build_campaign_schedule(
        CAMPAIGN_FAULTS[identity["fault"]],
        identity["duration_s"],
        identity["warmup_s"],
        identity["intensity"],
        tc2_chip(),
    )


def _build_campaign_sim(
    name: str, identity: Dict[str, object], schedule: FaultSchedule
) -> Tuple[Simulation, FaultInjector]:
    """One governor's simulation, injector attached, ready to run."""
    kind = CAMPAIGN_FAULTS[identity["fault"]]
    # Counter faults only bite a simulation that trades on counters, and
    # a drifting power model is only interesting when a fitted model
    # exists to drift away from -- attach the estimation pipeline for
    # both, exactly as thermal faults pull in thermal tracking.
    return build_simulation(
        identity,
        name,
        schedule,
        thermal=kind in THERMAL_FAULTS,
        estimation=kind in COUNTER_FAULTS or kind is FaultKind.POWER_MODEL_DRIFT,
    )


def _campaign_stream(index: int, name: str) -> str:
    """Checkpoint stream label for governor ``name`` at campaign ``index``."""
    return f"{index}-{name}"


def _point_dir(checkpoint_dir: str, index: int, name: str) -> str:
    """Per-point checkpoint subdirectory.

    Each (index, governor) point owns a private directory so concurrent
    workers never write into the same path, and a point's checkpoints,
    journal and final result travel together.
    """
    return os.path.join(checkpoint_dir, f"point_{_campaign_stream(index, name)}")


def _campaign_manifest_path(checkpoint_dir: str) -> str:
    return os.path.join(checkpoint_dir, "campaign.json")


def _write_campaign_manifest(
    checkpoint_dir: str, identity: Dict[str, object]
) -> None:
    os.makedirs(checkpoint_dir, exist_ok=True)
    atomic_write_text(
        _campaign_manifest_path(checkpoint_dir),
        json.dumps(
            {"magic": "repro-campaign", "version": 1, "identity": identity},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )


def _point_run_path(point_dir: str) -> str:
    return os.path.join(point_dir, "run.json")


def _point_journal_path(point_dir: str) -> str:
    return os.path.join(point_dir, "journal.json")


def _write_point_result(point_dir: str, run: CampaignRun) -> None:
    atomic_write_text(
        _point_run_path(point_dir),
        json.dumps({"run": asdict(run)}, indent=2, sort_keys=True) + "\n",
    )


def _read_point_result(point_dir: str) -> Optional[CampaignRun]:
    path = _point_run_path(point_dir)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return CampaignRun(**data["run"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"campaign point result {path!r} is unreadable: {exc}"
        )


def _latest_point_checkpoint(point_dir: str) -> Optional[str]:
    """Newest checkpoint inside one point directory, or None."""
    if not os.path.isdir(point_dir):
        return None
    best = None
    best_tick = -1
    for entry in os.listdir(point_dir):
        match = CHECKPOINT_GLOB_RE.match(entry)
        if not match:
            continue
        tick = int(match.group("tick"))
        if tick > best_tick:
            best_tick = tick
            best = entry
    return os.path.join(point_dir, best) if best is not None else None


def _attach_campaign_manager(
    sim: Simulation,
    point_dir: str,
    checkpoint_interval_s: float,
    identity: Dict[str, object],
    index: int,
    name: str,
) -> CheckpointManager:
    """Checkpoint this governor's run into its private point directory."""
    return CheckpointManager(
        point_dir,
        interval_s=checkpoint_interval_s,
        retention=3,
        stream=_campaign_stream(index, name),
        fingerprint_extra={"campaign": identity, "index": index, "governor": name},
        extra_payload={"campaign": identity, "index": index, "governor": name},
    ).attach(sim)


def _summarise_point(
    name: str,
    identity: Dict[str, object],
    windows: List[Tuple[float, float]],
    metrics,
    sim: Simulation,
    injector: FaultInjector,
    settle_s: float = 1.0,
) -> CampaignRun:
    last_window_end = max(
        (end for _, end in windows), default=sim.config.metrics_warmup_s
    )
    return CampaignRun(
        governor=name,
        fault=identity["fault"],
        intensity=identity["intensity"],
        miss_fraction_in_fault=metrics.miss_fraction_in_windows(windows),
        miss_fraction_outside_fault=metrics.miss_fraction_outside_windows(windows),
        recovery_time_s=metrics.recovery_time_s(
            after_s=last_window_end, settle_s=settle_s, dt=sim.dt
        ),
        tdp_violation_s=metrics.tdp_violation_seconds(identity["tdp_w"], sim.dt),
        average_power_w=metrics.average_power_w(),
        audit_violations=metrics.audit_violation_count(),
        fault_stats=injector.stats(),
    )


def _campaign_point(
    identity: Dict[str, object],
    index: int,
    name: str,
    checkpoint_dir: Optional[str],
    checkpoint_interval_s: float,
) -> CampaignRun:
    """Run one (campaign, governor) point end to end.

    Top-level and fed only picklable arguments, so it runs identically
    in-process (``jobs=1``) and inside a pool worker: the schedule, chip,
    workload and governor are all rebuilt from ``identity``, and all
    checkpoint artifacts stay inside this point's own subdirectory.
    """
    schedule = _campaign_schedule(identity)
    sim, injector = _build_campaign_sim(name, identity, schedule)
    manager = None
    point_dir = None
    if checkpoint_dir is not None:
        point_dir = _point_dir(checkpoint_dir, index, name)
        manager = _attach_campaign_manager(
            sim, point_dir, checkpoint_interval_s, identity, index, name
        )
    metrics = sim.run(identity["duration_s"])
    windows = list(schedule.windows())
    run = _summarise_point(name, identity, windows, metrics, sim, injector)
    if manager is not None:
        write_journal(
            _point_journal_path(point_dir),
            tick_records(metrics),
            manager.fingerprint,
            sim.dt,
        )
        _write_point_result(point_dir, run)
    return run


def run_fault_campaign(
    fault: str,
    governors: Sequence[str] = DEFAULT_CAMPAIGN_GOVERNORS,
    workload: str = "m2",
    duration_s: float = 40.0,
    warmup_s: float = 5.0,
    intensity: float = 0.3,
    seed: int = 1,
    power_cap_w: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval_s: float = 1.0,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Sweep one fault kind across ``governors`` and collect resilience data.

    Every governor replays the *same* schedule (faults live below the
    policy layer), under the Figure 6 power cap by default so the
    TDP-violation metric is meaningful.

    With ``checkpoint_dir`` set, a campaign manifest is written at the
    directory root and each governor's run writes periodic crash-consistent
    checkpoints, a per-tick telemetry journal and (on completion) its
    summary into its own ``point_<index>-<governor>/`` subdirectory, so a
    killed campaign can be continued with :func:`resume_fault_campaign`
    and verified with ``repro-experiments replay``.

    ``jobs`` (default ``$REPRO_JOBS`` or 1) runs governor points in
    worker processes; per-point subdirectories make the checkpoint
    streams disjoint, and results are merged in governor order so the
    report is identical to a serial campaign's.
    """
    kind = parse_fault_kind(fault)  # clean ValueError naming every valid kind
    if kind in FLEET_FAULTS:
        raise ValueError(
            f"fault kind {fault!r} targets fleet worker processes, which a "
            "single-chip campaign does not have; run it through "
            "'repro-experiments fleet --fleet-fault ...' instead"
        )
    cap = power_cap_w if power_cap_w is not None else capped_tdp_w()
    # Not point_identity(): the key order is part of the checkpoint files.
    identity = {
        "fault": fault,
        "workload": workload,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "intensity": intensity,
        "seed": seed,
        "tdp_w": cap,
        "governors": list(governors),
    }
    schedule = _campaign_schedule(identity)
    result = CampaignResult(
        fault=fault,
        workload=workload,
        duration_s=duration_s,
        intensity=intensity,
        tdp_w=cap,
        windows=list(schedule.windows()),
    )
    if checkpoint_dir is not None:
        _write_campaign_manifest(checkpoint_dir, identity)
    points = [
        (_campaign_point, (index, name, checkpoint_dir, checkpoint_interval_s))
        for index, name in enumerate(governors)
    ]
    result.runs.extend(fan_out(f"campaign {fault}", identity, points, jobs))
    return result


def _load_campaign_identity(checkpoint_dir: str) -> Dict[str, object]:
    """The campaign identity: from the manifest, else any checkpoint.

    The manifest is written before the first tick, so it survives any
    mid-campaign crash; the per-checkpoint fallback keeps resume working
    even if only a bare point directory was salvaged.
    """
    manifest_path = _campaign_manifest_path(checkpoint_dir)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("magic") != "repro-campaign":
                raise ValueError("not a campaign manifest")
            return data["identity"]
        except (OSError, ValueError, KeyError) as exc:
            raise CheckpointError(
                f"campaign manifest {manifest_path!r} is unreadable: {exc}"
            )
    for path in _iter_point_checkpoints(checkpoint_dir):
        envelope = read_checkpoint(path)
        extra = envelope.payload.get("extra")
        if isinstance(extra, dict) and "campaign" in extra:
            return extra["campaign"]
    raise CheckpointError(
        f"no campaign checkpoints found under {checkpoint_dir!r}; run "
        "'repro-experiments campaign --checkpoint-dir ...' first"
    )


def _iter_point_checkpoints(checkpoint_dir: str):
    """Every checkpoint under every point subdirectory, newest point first."""
    if not os.path.isdir(checkpoint_dir):
        return
    entries = []
    for entry in os.listdir(checkpoint_dir):
        if not entry.startswith("point_"):
            continue
        index_text = entry[len("point_"):].split("-", 1)[0]
        if not index_text.isdigit():
            continue
        entries.append((int(index_text), entry))
    for _, entry in sorted(entries, reverse=True):
        point_dir = os.path.join(checkpoint_dir, entry)
        path = _latest_point_checkpoint(point_dir)
        if path is not None:
            yield path


def _resume_point(
    identity: Dict[str, object],
    index: int,
    name: str,
    checkpoint_dir: str,
    checkpoint_interval_s: float,
) -> CampaignRun:
    """Finish one interrupted point from its newest checkpoint.

    Same signature as :func:`_campaign_point`, so a resume fans both out
    in one point list.
    """
    point_dir = _point_dir(checkpoint_dir, index, name)
    path = _latest_point_checkpoint(point_dir)
    assert path is not None
    schedule = _campaign_schedule(identity)
    injectors = []

    def factory():
        sim, injector = _build_campaign_sim(name, identity, schedule)
        injectors.append(injector)
        return sim

    sim, _ = resume_from(
        path,
        factory,
        fingerprint_extra={"campaign": identity, "index": index, "governor": name},
    )
    manager = _attach_campaign_manager(
        sim, point_dir, checkpoint_interval_s, identity, index, name
    )
    metrics = sim.run(identity["duration_s"] - sim.now)
    windows = list(schedule.windows())
    run = _summarise_point(name, identity, windows, metrics, sim, injectors[-1])
    write_journal(
        _point_journal_path(point_dir),
        tick_records(metrics),
        manager.fingerprint,
        sim.dt,
    )
    _write_point_result(point_dir, run)
    return run


def resume_fault_campaign(
    checkpoint_dir: str,
    checkpoint_interval_s: float = 1.0,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Continue a killed campaign from its per-point checkpoints.

    Re-reads the campaign identity (manifest, else embedded in any
    checkpoint), then brings every governor point to completion: points
    with a ``run.json`` are taken as-is, points with checkpoints resume
    mid-run from the newest one (validating the config/seed fingerprint),
    and points never started run from scratch.  Resumed and fresh points
    run in parallel when ``jobs`` > 1, since each owns a private
    subdirectory.  The returned :class:`CampaignResult` is tick-for-tick
    identical to an uninterrupted campaign's.
    """
    identity = _load_campaign_identity(checkpoint_dir)
    governors = list(identity["governors"])
    schedule = _campaign_schedule(identity)
    result = CampaignResult(
        fault=identity["fault"],
        workload=identity["workload"],
        duration_s=identity["duration_s"],
        intensity=identity["intensity"],
        tdp_w=identity["tdp_w"],
        windows=list(schedule.windows()),
    )
    runs: List[Optional[CampaignRun]] = []
    points = []
    for index, name in enumerate(governors):
        point_dir = _point_dir(checkpoint_dir, index, name)
        runs.append(_read_point_result(point_dir))
        if runs[index] is None:
            started = _latest_point_checkpoint(point_dir) is not None
            fn = _resume_point if started else _campaign_point
            points.append(
                (fn, (index, name, checkpoint_dir, checkpoint_interval_s))
            )
    label = f"campaign {identity['fault']}"
    finished = iter(fan_out(label, identity, points, jobs))
    result.runs.extend(run or next(finished) for run in runs)
    return result


def _campaign_checkpoint_context(checkpoint_dir: str, checkpoint_path: Optional[str]):
    """Resolve a campaign checkpoint to (path, identity, index, governor)."""
    path = checkpoint_path
    if path is None:
        path = next(_iter_point_checkpoints(checkpoint_dir), None)
        if path is None:
            raise CheckpointError(
                f"no campaign checkpoints found under {checkpoint_dir!r}; run "
                "'repro-experiments campaign --checkpoint-dir ...' first"
            )
    envelope = read_checkpoint(path)
    extra = envelope.payload.get("extra")
    if not isinstance(extra, dict) or "campaign" not in extra:
        raise CheckpointError(
            f"checkpoint {path!r} was not written by a fault campaign "
            "(no embedded campaign identity)"
        )
    return path, extra["campaign"], extra["index"], extra["governor"]


def replay_campaign_checkpoint(
    checkpoint_dir: str, checkpoint_path: Optional[str] = None
) -> ReplayReport:
    """Replay one campaign checkpoint against its telemetry journal.

    Picks the newest checkpoint of the furthest-progressed point unless
    ``checkpoint_path`` names one, rebuilds that governor's simulation
    from the embedded campaign identity, restores and re-runs it to the
    journal's end, and reports either a clean match or the first
    divergent tick with field-level diffs.  Requires the journal written
    when that governor's run completed (``point_<index>-<governor>/
    journal.json``).
    """
    path, identity, index, name = _campaign_checkpoint_context(
        checkpoint_dir, checkpoint_path
    )
    journal_path = _point_journal_path(os.path.dirname(path))
    if not os.path.exists(journal_path):
        raise CheckpointError(
            f"no telemetry journal at {journal_path!r}; the campaign run that "
            "wrote this checkpoint has not completed (finish it with "
            "'repro-experiments resume' first)"
        )
    journal = read_journal(journal_path)
    schedule = _campaign_schedule(identity)

    def factory():
        sim, _ = _build_campaign_sim(name, identity, schedule)
        return sim

    return replay_from_checkpoint(
        path,
        factory,
        journal["records"],
        fingerprint_extra={"campaign": identity, "index": index, "governor": name},
    )


# ----------------------------------------------------------------------
# Chaos/soak harness: long compound-fault runs with live thermals
# ----------------------------------------------------------------------
#: Recovery tail kept fault-free at the end of every soak schedule.
SOAK_RECOVERY_TAIL_S = 10.0


@dataclass
class SoakRun:
    """Resilience summary of one governor over a compound-fault soak."""

    governor: str
    mttr_s: Optional[float]
    unrecovered_windows: int
    time_over_tcrit_s: float
    thermal_cycles: Dict[str, int]
    peak_temperature_c: Optional[float]
    supervisor: Dict[str, int]
    unrecovered_trips: int
    audit_violations: int
    miss_fraction_in_fault: float
    miss_fraction_outside_fault: float
    average_power_w: float
    fault_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class SoakResult(Report):
    """One soak: every governor through the same compound-fault schedule."""

    workload: str
    duration_s: float
    seed: int
    tdp_w: float
    windows: List[Tuple[float, float]]
    runs: List[SoakRun] = field(default_factory=list)

    REPORT_STEM = "soak_{workload}"
    COLUMNS = (
        Column("governor", "<10", lambda r: r.governor),
        Column("MTTR (s)", ">9", lambda r: seconds_or_never(r.mttr_s)),
        Column("unrec win", ">9", lambda r: r.unrecovered_windows, "d"),
        Column("t>Tcrit (s)", ">11", lambda r: r.time_over_tcrit_s, ".2f"),
        Column("cycles", ">7", lambda r: sum(r.thermal_cycles.values()), "d"),
        Column("trips", ">6", lambda r: r.supervisor.get("trips", 0), "d"),
        Column("unrec", ">6", lambda r: r.unrecovered_trips, "d"),
        Column("audits", ">7", lambda r: r.audit_violations, "d"),
        Column("miss in", ">8", lambda r: r.miss_fraction_in_fault, ".3f"),
        Column("miss out", ">9", lambda r: r.miss_fraction_outside_fault, ".3f"),
        Column("avg W", ">7", lambda r: r.average_power_w, ".2f"),
    )

    def header(self) -> str:
        return (
            f"Chaos soak  (workload {self.workload}, {self.duration_s:.0f} s, "
            f"seed {self.seed}, TDP {self.tdp_w:.1f} W, "
            f"{len(self.windows)} merged fault windows)"
        )


def build_soak_schedule(
    duration_s: float, warmup_s: float, chip
) -> FaultSchedule:
    """Staggered periodic compound faults: thermal + sensing + actuation.

    Five overlapping periodic trains, all starting after the warm-up and
    all ending :data:`SOAK_RECOVERY_TAIL_S` before the run does, so the
    final recovery is always observable.  Thermal model faults hit the
    fastest cluster (the one the trip ladder must eventually unplug);
    the thermal-sensor-stuck and power-sensor-dropout trains are
    chip-wide to also blind the supervisor and the watchdog.
    """
    if duration_s <= warmup_s + SOAK_RECOVERY_TAIL_S:
        raise ValueError(
            "soak duration must exceed warmup + "
            f"{SOAK_RECOVERY_TAIL_S:.0f} s recovery tail"
        )
    hot = max(chip.clusters, key=lambda c: c.max_supply_pus).cluster_id
    until_s = duration_s - SOAK_RECOVERY_TAIL_S
    trains = [
        # (kind, period, duration, stagger, target, kwargs)
        (FaultKind.THERMAL_RUNAWAY, 20.0, 6.0, 2.0, hot, {"magnitude": 12.0}),
        (FaultKind.COOLING_DEGRADED, 25.0, 8.0, 5.0, hot, {"magnitude": 3.0}),
        (FaultKind.THERMAL_SENSOR_STUCK, 15.0, 4.0, 3.0, None, {}),
        (FaultKind.SENSOR_DROPOUT, 10.0, 1.0, 1.0, None, {}),
        (FaultKind.DVFS_DROP, 13.0, 3.0, 4.0, hot, {}),
    ]
    schedule = FaultSchedule()
    for kind, period_s, window_s, stagger_s, target, kwargs in trains:
        start_s = warmup_s + stagger_s
        duration = min(window_s, until_s - start_s)
        # Bound the last *end*, not just the last start: every window must
        # close before the recovery tail so the tail stays fault-free.
        if duration <= 0 or start_s + duration > until_s:
            continue
        schedule = schedule.extended(
            periodic_faults(
                kind,
                period_s=period_s,
                duration_s=duration,
                until_s=until_s - duration + 1e-9,
                start_s=start_s,
                target=target,
                **kwargs,
            ).events
        )
    return schedule


def merged_windows(
    windows: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Coalesce overlapping fault windows into distinct outage episodes."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _soak_schedule(identity: Dict[str, object]) -> FaultSchedule:
    return build_soak_schedule(
        identity["duration_s"], identity["warmup_s"], tc2_chip()
    )


def _soak_point(identity: Dict[str, object], name: str) -> SoakRun:
    """Run one governor through the soak schedule; picklable for workers.

    Every soak sim runs with live thermal tracking, the full protection
    ladder and the market auditor enabled -- the point of a soak is to
    prove the invariants hold *under* compound faults, so auditing is not
    optional here the way it is for the performance sweeps.
    """
    schedule = _soak_schedule(identity)
    sim, injector = build_simulation(identity, name, schedule, thermal=True)
    metrics = sim.run(identity["duration_s"])
    episodes = merged_windows(schedule.windows())
    recoveries = [
        metrics.recovery_time_s(after_s=end, settle_s=1.0, dt=sim.dt)
        for _, end in episodes
    ]
    recovered = [r for r in recoveries if r is not None]
    supervisor = sim.thermal_supervisor
    return SoakRun(
        governor=name,
        mttr_s=(sum(recovered) / len(recovered)) if recovered else None,
        unrecovered_windows=sum(1 for r in recoveries if r is None),
        time_over_tcrit_s=sim.time_over_tcrit_s,
        thermal_cycles={
            cid: counter.cycles for cid, counter in sim.cycle_counters.items()
        },
        peak_temperature_c=peak_temperature_c(metrics),
        supervisor=supervisor.stats() if supervisor is not None else {},
        unrecovered_trips=(
            supervisor.unrecovered_trips if supervisor is not None else 0
        ),
        audit_violations=metrics.audit_violation_count(),
        miss_fraction_in_fault=metrics.miss_fraction_in_windows(episodes),
        miss_fraction_outside_fault=metrics.miss_fraction_outside_windows(
            episodes
        ),
        average_power_w=metrics.average_power_w(),
        fault_stats=injector.stats(),
    )


def run_soak(
    governors: Sequence[str] = DEFAULT_CAMPAIGN_GOVERNORS,
    workload: str = "m2",
    duration_s: float = 120.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    power_cap_w: Optional[float] = None,
    jobs: Optional[int] = None,
) -> SoakResult:
    """Drive every governor through the same long compound-fault soak.

    Unlike single-kind campaigns, the soak overlaps thermal runaway,
    degraded cooling, stuck thermal zones, power-sensor dropouts and
    dropped DVFS writes, with the market auditor checking every round.
    The report answers the chaos-engineering questions: mean time to
    recover per outage episode (MTTR), seconds any cluster spent over
    ``tcrit_c``, thermal cycle counts, trip-ladder activity and whether
    the market books stayed consistent throughout.
    """
    cap = power_cap_w if power_cap_w is not None else capped_tdp_w()
    identity = point_identity(workload, duration_s, warmup_s, seed, cap, governors)
    schedule = _soak_schedule(identity)
    result = SoakResult(
        workload=workload,
        duration_s=duration_s,
        seed=seed,
        tdp_w=cap,
        windows=merged_windows(schedule.windows()),
    )
    points = governor_grid(_soak_point, identity)
    result.runs.extend(fan_out("soak", identity, points, jobs))
    return result

"""Command-line front end: regenerate any table or figure.

Examples::

    repro-experiments table1
    repro-experiments fig4 --duration 120
    repro-experiments fig7
    repro-experiments table7
    repro-experiments table7x   # + full-engine rows at 1k/10k tasks
    repro-experiments all --duration 60
    repro-experiments campaign --fault sensor-dropout
    repro-experiments campaign --fault thermal-runaway
    repro-experiments soak --soak-duration 120
    repro-experiments checkpoint --fault hotplug --checkpoint-dir results/ckpt
    repro-experiments resume --checkpoint-dir results/ckpt
    repro-experiments replay --checkpoint-dir results/ckpt --verify
    repro-experiments overload --multiplier 3 --overload-duration 30
    repro-experiments overload-soak --soak-duration 60
    repro-experiments model-error --error-magnitudes 0,0.5,2 --drift-rates 0,0.2
    repro-experiments fleet --fleet-chips 8 --fleet-epochs 6
    repro-experiments fleet --fleet-fault worker-kill@2:chip03
    repro-experiments fleet --resume-fleet --fleet-dir results/fleet
    repro-experiments profile --scenario many_tasks_1k
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..checkpoint import CheckpointError
from ..tasks import DemandTrace
from .campaigns import (
    CAMPAIGN_FAULTS,
    DEFAULT_CAMPAIGN_GOVERNORS,
    replay_campaign_checkpoint,
    resume_fault_campaign,
    run_fault_campaign,
    run_soak,
)
from .fleet import DEFAULT_FLEET_DIR, resume_fleet_campaign, run_fleet_campaign
from .harness import GOVERNOR_NAMES
from .modelerror import (
    DEFAULT_DRIFT_RATES,
    DEFAULT_ERROR_MAGNITUDES,
    run_model_error_campaign,
)
from .overload import run_overload, run_overload_soak
from .scenario import write_report

#: Where campaign checkpoints land unless ``--checkpoint-dir`` says otherwise.
DEFAULT_CHECKPOINT_DIR = "results/checkpoints"
from .comparative import figure4, figure5, figure6, run_comparative
from .priorities import figure7
from .running_examples import table1, table2, table3, table4
from .savings import figure8
from .scalability import table7, table7_extended
from .validation import validate_reproduction


def _run_table1(args) -> str:
    return table1()[1]


def _run_table2(args) -> str:
    return table2()[1]


def _run_table3(args) -> str:
    return table3()[1]


def _run_table4(args) -> str:
    return table4()


def _export(result, path):
    if path:
        from ..analysis import write_comparative

        write_comparative(result, path)


def _audit_suffix(args, result) -> str:
    if not args.strict_audit:
        return ""
    return f"\n\nmarket audit violations: {result.total_audit_violations()}"


def _run_fig4(args) -> str:
    result = run_comparative(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    text4 = figure4(result=result)[1]
    text5 = figure5(result=result)[1]
    _export(result, args.export)
    return text4 + "\n\n" + text5 + _audit_suffix(args, result)


def _run_fig5(args) -> str:
    result, text = figure5(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    return text + _audit_suffix(args, result)


def _run_fig6(args) -> str:
    result, text = figure6(
        duration_s=args.duration, warmup_s=args.warmup, jobs=args.jobs,
        strict_audit=args.strict_audit,
    )
    _export(result, args.export)
    return text + _audit_suffix(args, result)


def _run_fig7(args) -> str:
    return figure7(duration_s=args.fig_duration)[2]


def _run_fig8(args) -> str:
    return figure8()[1]


def _run_table7(args) -> str:
    return table7(invocations=args.invocations, jobs=args.jobs)[1]


def _run_table7x(args) -> str:
    return table7_extended(invocations=args.invocations, jobs=args.jobs)[2]


def _run_profile(args) -> str:
    """cProfile one perf scenario; report written to results/."""
    import cProfile
    import io
    import pstats

    # The perf scenarios live in the repo-root ``benchmarks`` package
    # (they are a development tool, not part of the installed library).
    repo_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "..")
    )
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    try:
        from benchmarks.perf import SCENARIO_ORDER, run_scenario
    except ImportError as exc:
        raise SystemExit(
            "profile: the benchmarks package is not importable "
            f"(looked under {repo_root}); run from a source checkout"
        ) from exc
    scenario = args.scenario
    if scenario not in SCENARIO_ORDER:
        raise SystemExit(
            f"profile: unknown scenario {scenario!r}; "
            f"choose from {', '.join(SCENARIO_ORDER)}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    metrics = run_scenario(scenario, quick=True)
    profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.profile_lines)
    summary = ", ".join(
        f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
        for key, value in sorted(metrics.items())
    )
    report = (
        f"cProfile of perf scenario {scenario!r} (quick variant)\n"
        f"scenario metrics: {summary}\n\n"
        f"{stream.getvalue()}"
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"profile_{scenario}.txt")
    with open(path, "w") as handle:
        handle.write(report)
    head = "\n".join(report.splitlines()[:20])
    return head + f"\n...\nprofile written to {path}"


def _run_validate(args) -> str:
    report = validate_reproduction(quick=not args.full)
    status = "ALL CLAIMS PASS" if report.passed else "SOME CLAIMS FAILED"
    return report.as_table() + "\n" + status


def _report(result, args) -> str:
    """Write ``result``'s report under ``--out``; the table plus its path."""
    path = write_report(result, out_dir=args.out)
    return result.as_table() + f"\n\nreport written to {path}"


def _parse_governors(spec: str) -> List[str]:
    """Split and validate a ``--governors`` list; exits cleanly on bad names."""
    governors = [g.strip() for g in spec.split(",") if g.strip()]
    if not governors:
        raise SystemExit(
            "no governors given; valid choices: " + ", ".join(GOVERNOR_NAMES)
        )
    unknown = [g for g in governors if g not in GOVERNOR_NAMES]
    if unknown:
        raise SystemExit(
            "unknown governor(s) "
            + ", ".join(repr(g) for g in unknown)
            + "; valid choices: "
            + ", ".join(GOVERNOR_NAMES)
        )
    return governors


def _load_trace(path: Optional[str]):
    """Load a :class:`DemandTrace` JSON file; exits cleanly on bad paths."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = handle.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise SystemExit(f"cannot read trace file {path!r}: {reason}")
    try:
        return DemandTrace.from_json(payload)
    except ValueError as exc:
        raise SystemExit(f"invalid trace file {path!r}: {exc}")


def _checkpoint_directory(args) -> str:
    """Resolve ``--checkpoint-dir``; exits cleanly when it is unusable."""
    directory = args.checkpoint_dir or DEFAULT_CHECKPOINT_DIR
    if not os.path.isdir(directory):
        raise SystemExit(
            f"checkpoint directory {directory!r} does not exist; run "
            "'repro-experiments checkpoint' first or pass --checkpoint-dir"
        )
    if not os.access(directory, os.R_OK):
        raise SystemExit(f"checkpoint directory {directory!r} is not readable")
    return directory


def _run_campaign(args) -> str:
    if args.fault is None:
        raise SystemExit("campaign requires --fault (e.g. --fault sensor-dropout)")
    governors = _parse_governors(args.governors)
    result = run_fault_campaign(
        args.fault,
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.campaign_duration,
        warmup_s=args.campaign_warmup,
        intensity=args.intensity,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval_s=args.checkpoint_interval,
        jobs=args.jobs,
    )
    return _report(result, args)


def _run_soak(args) -> str:
    governors = _parse_governors(args.governors)
    result = run_soak(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.soak_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        jobs=args.jobs,
    )
    return _report(result, args)


def _run_checkpoint(args) -> str:
    """``campaign`` with checkpointing always on (default directory)."""
    if args.checkpoint_dir is None:
        args.checkpoint_dir = DEFAULT_CHECKPOINT_DIR
    return _run_campaign(args)


def _run_resume(args) -> str:
    directory = _checkpoint_directory(args)
    try:
        result = resume_fault_campaign(
            directory,
            checkpoint_interval_s=args.checkpoint_interval,
            jobs=args.jobs,
        )
    except (CheckpointError, OSError) as exc:
        raise SystemExit(f"resume failed: {exc}")
    return _report(result, args)


def _run_replay(args) -> str:
    directory = _checkpoint_directory(args)
    try:
        report = replay_campaign_checkpoint(directory)
    except (CheckpointError, OSError) as exc:
        raise SystemExit(f"replay failed: {exc}")
    text = report.describe()
    if args.verify and not report.clean:
        raise SystemExit(text)
    return text


def _parse_floats(spec: str, flag: str) -> List[float]:
    """Split a comma-separated float list; exits cleanly on junk."""
    values = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise SystemExit(
                f"{flag} expects comma-separated numbers, got {piece!r}"
            )
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _run_model_error(args) -> str:
    governors = _parse_governors(args.governors)
    result = run_model_error_campaign(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.campaign_duration,
        warmup_s=args.campaign_warmup,
        error_magnitudes=_parse_floats(
            args.error_magnitudes, "--error-magnitudes"
        ),
        drift_rates=_parse_floats(args.drift_rates, "--drift-rates"),
        seed=args.seed,
        jobs=args.jobs,
    )
    return _report(result, args)


def _run_overload(args) -> str:
    governors = _parse_governors(args.governors)
    trace = _load_trace(args.trace)
    result = run_overload(
        governors=governors,
        workload=args.workload or "l1",
        duration_s=args.overload_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        multiplier=args.multiplier,
        trace=trace,
        jobs=args.jobs,
    )
    return _report(result, args)


def _run_overload_soak(args) -> str:
    governors = _parse_governors(args.governors)
    trace = _load_trace(args.trace)
    result = run_overload_soak(
        governors=governors,
        workload=args.workload or "m2",
        duration_s=args.soak_duration,
        warmup_s=args.campaign_warmup,
        seed=args.seed,
        multiplier=args.multiplier,
        trace=trace,
        jobs=args.jobs,
    )
    return _report(result, args)


def _run_fleet(args) -> str:
    from ..checkpoint import CheckpointError as _CheckpointError
    from ..fleet import FleetBudgetInvariantError, RetryPolicy

    try:
        if args.resume_fleet:
            result = resume_fleet_campaign(
                args.fleet_dir, strict_audit=args.strict_audit
            )
        else:
            result = run_fleet_campaign(
                chips=args.fleet_chips,
                epochs=args.fleet_epochs,
                epoch_s=args.epoch_duration,
                grid_budget_w=args.grid_budget,
                seed=args.seed,
                fleet_dir=args.fleet_dir,
                faults=args.fleet_fault or (),
                retry=RetryPolicy(timeout_s=args.fleet_timeout),
                strict_audit=args.strict_audit,
            )
    except ValueError as exc:
        raise SystemExit(f"fleet: {exc}")
    except FleetBudgetInvariantError as exc:
        raise SystemExit(f"fleet budget audit failed: {exc}")
    except (_CheckpointError, OSError) as exc:
        raise SystemExit(f"fleet resume failed: {exc}")
    return _report(result, args)


_COMMANDS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "table7": _run_table7,
    "validate": _run_validate,
}

#: Commands excluded from ``all`` (campaigns are a study, not a figure).
_EXTRA_COMMANDS = {
    "table7x": _run_table7x,
    "campaign": _run_campaign,
    "soak": _run_soak,
    "checkpoint": _run_checkpoint,
    "resume": _run_resume,
    "replay": _run_replay,
    "overload": _run_overload,
    "overload-soak": _run_overload_soak,
    "model-error": _run_model_error,
    "fleet": _run_fleet,
    "profile": _run_profile,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + sorted(_EXTRA_COMMANDS) + ["all"],
        help="which table/figure to regenerate (or 'campaign')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for independent experiment points "
            "(default: $REPRO_JOBS or 1; results are identical at any "
            "job count)"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=120.0,
        help="simulated seconds per comparative run (figs 4-6)",
    )
    parser.add_argument(
        "--warmup",
        type=float,
        default=30.0,
        help="warm-up seconds excluded from summaries (figs 4-6)",
    )
    parser.add_argument(
        "--fig-duration",
        type=float,
        default=300.0,
        help="simulated seconds for the figure 7 runs",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=5,
        help="timed LBT invocations per table 7 configuration",
    )
    parser.add_argument(
        "--export",
        default=None,
        help="write the comparative sweep to this .json/.csv path (figs 4-6)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="validate with benchmark-grade durations instead of quick runs",
    )
    parser.add_argument(
        "--strict-audit",
        action="store_true",
        help=(
            "run the market auditor every round of the comparative sweeps "
            "(figs 4-6) and report the violation total; slower, off by "
            "default (campaign and soak runs always audit)"
        ),
    )
    campaign = parser.add_argument_group("fault campaigns")
    campaign.add_argument(
        "--fault",
        choices=sorted(CAMPAIGN_FAULTS),
        default=None,
        help="fault kind to inject (campaign command)",
    )
    campaign.add_argument(
        "--governors",
        default=",".join(DEFAULT_CAMPAIGN_GOVERNORS),
        help="comma-separated governors to sweep (default: PPM,HPM,HL)",
    )
    campaign.add_argument(
        "--workload",
        default=None,
        help="workload set (default: m2 for campaigns/soaks, l1 for overload)",
    )
    campaign.add_argument(
        "--intensity",
        type=float,
        default=0.3,
        help="fraction of time under fault, in (0, 0.8] (default: 0.3)",
    )
    campaign.add_argument(
        "--campaign-duration",
        type=float,
        default=40.0,
        help="simulated seconds per campaign run (default: 40)",
    )
    campaign.add_argument(
        "--campaign-warmup",
        type=float,
        default=5.0,
        help="warm-up seconds per campaign run (default: 5)",
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=1,
        help="engine seed for campaign runs (default: 1)",
    )
    campaign.add_argument(
        "--soak-duration",
        type=float,
        default=120.0,
        help="simulated seconds for the soak command (default: 120)",
    )
    campaign.add_argument(
        "--out",
        default="results",
        help="directory for campaign reports (default: results/)",
    )
    profile = parser.add_argument_group("profile")
    profile.add_argument(
        "--scenario",
        default="many_tasks_1k",
        help=(
            "perf scenario to profile (profile command; "
            "default: many_tasks_1k)"
        ),
    )
    profile.add_argument(
        "--profile-lines",
        type=int,
        default=40,
        help="rows in the cumulative-time report (default: 40)",
    )
    modelerror = parser.add_argument_group("model-error / estimated power")
    modelerror.add_argument(
        "--error-magnitudes",
        default=",".join(str(v) for v in DEFAULT_ERROR_MAGNITUDES),
        help=(
            "comma-separated counter-bias magnitudes to sweep "
            "(model-error command; 0 = clean counters)"
        ),
    )
    modelerror.add_argument(
        "--drift-rates",
        default=",".join(str(v) for v in DEFAULT_DRIFT_RATES),
        help=(
            "comma-separated power-model drift rates per second to sweep "
            "(model-error command; 0 = stable silicon)"
        ),
    )
    overload = parser.add_argument_group("overload / flash crowds")
    overload.add_argument(
        "--overload-duration",
        type=float,
        default=30.0,
        help="simulated seconds for the overload command (default: 30)",
    )
    overload.add_argument(
        "--multiplier",
        type=float,
        default=3.0,
        help="flash-crowd burst rate as a multiple of sustainable (default: 3)",
    )
    overload.add_argument(
        "--trace",
        default=None,
        help="DemandTrace JSON file modulating the arrival rate (optional)",
    )
    checkpointing = parser.add_argument_group("checkpoint / resume / replay")
    checkpointing.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "write/read campaign checkpoints here (checkpoint/resume/replay "
            f"default to {DEFAULT_CHECKPOINT_DIR}/)"
        ),
    )
    checkpointing.add_argument(
        "--checkpoint-interval",
        type=float,
        default=1.0,
        help="simulated seconds between checkpoints (default: 1.0)",
    )
    checkpointing.add_argument(
        "--verify",
        action="store_true",
        help="replay: exit non-zero if the replay diverges from the journal",
    )
    fleet = parser.add_argument_group("fleet campaigns (multi-chip)")
    fleet.add_argument(
        "--fleet-chips",
        type=int,
        default=8,
        help="number of chips (worker processes) in the fleet (default: 8)",
    )
    fleet.add_argument(
        "--fleet-epochs",
        type=int,
        default=6,
        help="global budget epochs to run (default: 6)",
    )
    fleet.add_argument(
        "--epoch-duration",
        type=float,
        default=0.5,
        help="simulated seconds per fleet epoch (default: 0.5)",
    )
    fleet.add_argument(
        "--grid-budget",
        type=float,
        default=None,
        help="grid power budget in watts (default: 3 W per chip)",
    )
    fleet.add_argument(
        "--fleet-fault",
        action="append",
        default=None,
        metavar="KIND@EPOCH:CHIP[:PARAM]",
        help=(
            "inject a fleet fault, e.g. worker-kill@2:chip03, "
            "worker-stall@3:chip05:45, worker-msg-loss@1:chip00:2 "
            "(repeatable)"
        ),
    )
    fleet.add_argument(
        "--fleet-dir",
        default=DEFAULT_FLEET_DIR,
        help=(
            "fleet state directory: per-chip checkpoints + manifest "
            f"(default: {DEFAULT_FLEET_DIR}/)"
        ),
    )
    fleet.add_argument(
        "--resume-fleet",
        action="store_true",
        help="resume an interrupted fleet campaign from its manifest",
    )
    fleet.add_argument(
        "--fleet-timeout",
        type=float,
        default=10.0,
        help=(
            "base per-attempt worker reply timeout in wall seconds; "
            "retries back off exponentially from here (default: 10)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = sorted(_COMMANDS)
    else:
        names = [args.experiment]
    commands = {**_COMMANDS, **_EXTRA_COMMANDS}
    for name in names:
        print(commands[name](args))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

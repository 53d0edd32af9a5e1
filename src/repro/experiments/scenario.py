"""One runner for the robustness harnesses.

The fault campaign, chaos soak, overload, overload soak and model-error
harnesses share one shape, the paper's governor x workload grid: every
governor replays the same disturbance on the same workload and seed,
and the report is one row per point.  This module owns what they share:

* **Simulation setup** -- :func:`build_simulation` rebuilds a point's
  chip, workload, governor and :class:`~repro.sim.SimConfig` from the
  scenario's identity dict, then attaches the fault injector and the
  arrival/admission manager, in that order.
* **Fan-out** -- :func:`fan_out` runs the points through
  :func:`~repro.experiments.parallel.execute_points`, so results are in
  point order at any job count; :func:`governor_grid` spells the usual
  governor x grid product.
* **Report format** -- :class:`Report` renders a result's table from its
  ``COLUMNS`` and its JSON from ``asdict``; :func:`write_report` writes
  the ``.txt``/``.json`` pair atomically under the result's stem.

A harness keeps only its schedule builder, its per-point summary and its
column list.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..checkpoint import atomic_write_text
from ..core.powerest import EstimationConfig
from ..faults import FaultInjector, FaultSchedule
from ..hw import ThermalConfig, ThermalParams, ThermalProtectionConfig, tc2_chip
from ..sim import SimConfig, Simulation
from ..tasks import build_workload
from .harness import make_governor
from .parallel import PointSpec, execute_points

#: RC parameters for thermal campaigns and soak runs.  Chosen so a
#: fault-free big cluster settles well below the WARN threshold (~6 W
#: peak -> ~61 degC against warn_c = 70), which makes every trip-ladder
#: engagement attributable to the injected fault and guarantees full
#: recovery once the fault window closes.
CAMPAIGN_THERMAL_PARAMS = ThermalParams(
    resistance_k_per_w=6.0, capacitance_j_per_k=0.5, ambient_c=25.0
)


def campaign_thermal_config(chip) -> ThermalConfig:
    """Thermal tracking plus the full protection ladder for campaign sims."""
    return ThermalConfig(
        params={c.cluster_id: CAMPAIGN_THERMAL_PARAMS for c in chip.clusters},
        protection=ThermalProtectionConfig(),
    )


def point_identity(
    workload: str,
    duration_s: float,
    warmup_s: float,
    seed: int,
    tdp_w: float,
    governors: Sequence[str],
    **extra: Any,
) -> Dict[str, Any]:
    """Everything a point needs to rebuild its simulation deterministically.

    These six keys first, then ``extra`` in the order given.
    """
    return {
        "workload": workload,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "seed": seed,
        "tdp_w": tdp_w,
        "governors": list(governors),
        **extra,
    }


def build_simulation(
    identity: Dict[str, Any],
    governor: str,
    schedule: Optional[FaultSchedule] = None,
    thermal: bool = False,
    estimation: bool = False,
    overload=None,
) -> Tuple[Simulation, Optional[FaultInjector]]:
    """One governor's audited simulation for a point, ready to run.

    ``thermal`` adds live thermals with the protection ladder,
    ``estimation`` the counter-fitted power model.  ``schedule`` is
    injected through a :class:`FaultInjector` (returned, else ``None``)
    and ``overload`` (an :class:`~repro.core.admission.OverloadManager`)
    is attached after it.
    """
    chip = tc2_chip()
    sim = Simulation(
        chip,
        build_workload(identity["workload"]),
        make_governor(governor, power_cap_w=identity["tdp_w"]),
        config=SimConfig(
            metrics_warmup_s=identity["warmup_s"],
            seed=identity["seed"],
            audit=True,
            thermal=campaign_thermal_config(chip) if thermal else None,
            estimation=EstimationConfig() if estimation else None,
        ),
    )
    injector = None
    if schedule is not None:
        injector = FaultInjector(sim, schedule).attach()
    if overload is not None:
        overload.attach(sim)
    return sim, injector


def peak_temperature_c(metrics) -> Optional[float]:
    """Hottest cluster temperature of the run, or None without thermals."""
    peaks = [
        max(s.cluster_temperature_c.values())
        for s in metrics.samples
        if s.cluster_temperature_c
    ]
    return max(peaks) if peaks else None


def governor_grid(
    fn: Callable[..., Any], identity: Dict[str, Any], *axes: Sequence[Any]
) -> List[Tuple[Callable[..., Any], tuple]]:
    """``fn`` at every (governor, *axis value) point, governors outermost."""
    return [
        (fn, point) for point in itertools.product(identity["governors"], *axes)
    ]


def fan_out(
    label: str,
    identity: Dict[str, Any],
    points: Sequence[Tuple[Callable[..., Any], tuple]],
    jobs: Optional[int],
) -> List[Any]:
    """``fn(identity, *args)`` for every ``(fn, args)`` point, in point order.

    Each ``fn`` is top-level and every argument picklable, so a point
    runs identically in-process and in a pool worker; ``jobs`` (default
    ``$REPRO_JOBS`` or 1) never changes the results.
    """
    specs = [
        PointSpec(
            fn=fn,
            label=f"{label}/{'/'.join(str(arg) for arg in args)}",
            args=(identity, *args),
        )
        for fn, args in points
    ]
    return execute_points(specs, jobs=jobs)


class Column(NamedTuple):
    """One report column: ``format(value(run), width + fmt)`` per row."""

    title: str
    width: str  #: alignment and width, shared by title and cells, e.g. ">13"
    value: Callable[[Any], Any]
    fmt: str = ""  #: cell format after the width, e.g. ".3f"


def seconds_or_never(value: Optional[float]) -> str:
    """A duration cell: two decimals, or ``never`` when it did not happen."""
    return f"{value:.2f}" if value is not None else "never"


class Report:
    """Table and JSON rendering for a harness result dataclass.

    A subclass has a ``runs`` list, a ``header()`` line, ``COLUMNS`` and
    a ``REPORT_STEM`` formatted with its fields (``"campaign_{fault}"``).
    The table is the header, a blank line, the column titles, a rule of
    dashes as wide as the titles, then one row per run.
    """

    REPORT_STEM = ""
    COLUMNS: Tuple[Column, ...] = ()

    def header(self) -> str:
        raise NotImplementedError

    def as_table(self) -> str:
        titles = " ".join(format(c.title, c.width) for c in self.COLUMNS)
        rows = [
            " ".join(format(c.value(run), c.width + c.fmt) for c in self.COLUMNS)
            for run in self.runs
        ]
        return "\n".join([self.header(), "", titles, "-" * len(titles), *rows])

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def write_report(result, out_dir: str = "results") -> str:
    """Write ``result``'s table and JSON under ``out_dir``; returns the text path.

    Both files are written atomically (temp + rename), so a crash
    mid-write never leaves a truncated report behind.
    """
    stem = os.path.join(out_dir, result.REPORT_STEM.format(**vars(result)))
    atomic_write_text(stem + ".txt", result.as_table() + "\n")
    atomic_write_text(stem + ".json", result.to_json() + "\n")
    return stem + ".txt"

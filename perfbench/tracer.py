"""Outside-in per-layer tracing for the benchmark.

Nothing inside ``src/`` is instrumented.  A :class:`Tracer` replaces the
public entry points of each layer (class methods and module functions)
with timing wrappers for the duration of a ``with tracer.installed():``
block and restores the originals on exit.  Spans nest on one stack, so
every span's *self* time is its duration minus the time of the spans it
called -- ``sim.step`` self time is the engine's own work (dispatch,
epoch rebuild, placement, gating) once every timed child is taken out.

Targets are named by module and attribute path and resolved when the
tracer is installed.  A target a later refactor removed or renamed
raises there, so the traced operation fails instead of reporting a
layer that reads zero.

A tracer can also log every call as ``(span, start_ns, end_ns)`` in
:attr:`Tracer.stamps`; the fleet workload reads its epochs off that log.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


def _file_bytes(path: object) -> int:
    """Size of the file a save returned the path of (0 for no path)."""
    return os.path.getsize(path) if isinstance(path, str) else 0


def _moved(decision: object) -> int:
    return int(decision is not None)


#: (module, attribute path, span name, counter fed by the call's result).
#: Several targets may share a span name (an override and its base); a
#: span re-entered under its own name counts once.
TARGETS: List[Tuple[str, str, str, Optional[Tuple[str, Callable]]]] = [
    ("repro.sim.engine", "Simulation.sync", "sim.sync", None),
    ("repro.sim.columnar", "ColumnarSimulation.sync", "sim.sync", None),
    ("repro.sim.metrics", "MetricsCollector.record", "sim.metrics_record", None),
    ("repro.sim.columnar", "ColumnarMetrics.record", "sim.metrics_record", None),
    ("repro.core.framework", "PPMGovernor.on_tick", "core.governor", None),
    ("repro.core.market", "Market.run_round", "core.market_round", None),
    ("repro.core.lbt", "LBTModule.propose_migration", "core.lbt",
     ("core.lbt_moves", _moved)),
    ("repro.core.lbt", "LBTModule.propose_load_balance", "core.lbt",
     ("core.lbt_moves", _moved)),
    ("repro.core.powerest", "EstimationManager.on_tick", "core.powerest", None),
    ("repro.core.admission", "OverloadManager.on_tick", "core.admission", None),
    ("repro.hw.topology", "Chip.tick", "hw.chip_tick", None),
    ("repro.hw.sensors", "PowerSensor.sample", "hw.sensor", None),
    ("repro.hw.sensors", "ThermalSensor.sample", "hw.sensor", None),
    ("repro.hw.thermal", "ThermalModel.step", "hw.thermal", None),
    ("repro.core.resilience", "ThermalSupervisor.on_tick", "hw.thermal", None),
    ("repro.checkpoint.manager", "CheckpointManager.save", "checkpoint.save",
     ("checkpoint.bytes", _file_bytes)),
    ("repro.fleet.supervisor", "request", "fleet.request", None),
    ("repro.fleet.supervisor", "clear_grants", "fleet.auction", None),
    ("repro.fleet.budget", "FleetBudgetAuditor.audit_epoch", "fleet.audit", None),
    ("repro.fleet.supervisor", "write_fleet_manifest", "fleet.manifest",
     ("fleet.manifest_bytes", _file_bytes)),
]


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module:path``; raises if it is gone."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    getattr(owner, attr)
    return owner, attr


class Tracer:
    """Accumulates per-span totals, self times, call counts and counters."""

    def __init__(self) -> None:
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        #: When a list before :meth:`installed` or :meth:`wrap`, every
        #: call the wrappers then made logs ``(span, start_ns, end_ns)``.
        self.stamps: Optional[List[Tuple[str, int, int]]] = None
        # One frame per open span: [name, nanoseconds spent in children].
        self._stack: List[list] = []

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        """``fn`` timed as span ``name``; ``counter`` is ``(key, f(result))``."""
        stack, stamps = self._stack, self.stamps
        total, own, calls, counters = (
            self.total_ns, self.self_ns, self.calls, self.counters
        )

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)  # base-class call of an override
            frame = [name, 0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                elapsed = end - start
                stack.pop()
                total[name] += elapsed
                own[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if stamps is not None:
                    stamps.append((name, start, end))
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Tracer"]:
        """Patch every entry of ``targets`` for the block's duration."""
        saved = []
        try:
            for module, path, name, counter in targets:
                owner, attr = _resolve(module, path)
                if isinstance(owner, type) and attr not in vars(owner):
                    continue  # inherited: the base's patch already covers it
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

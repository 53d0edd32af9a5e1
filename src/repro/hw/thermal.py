"""Lumped RC thermal model per cluster.

The paper motivates the tolerance factor ``delta`` with thermal concerns:
fast DVFS responses cause "frequent V-F level transitions, and hence
thermal cycling, which can be detrimental to both the performance and
the reliability of the hardware" (section 3.2.2, citing Rosing et al.).
The TC2 board has no per-cluster thermal sensors the paper could read,
so the evaluation never shows temperatures -- but a reproduction that
wants to *measure* thermal cycling needs a thermal substrate.

Standard first-order lumped model per cluster::

    C * dT/dt = P - (T - T_ambient) / R

with thermal resistance ``R`` [K/W] and capacitance ``C`` [J/K].  The
defaults are calibrated so the big cluster at its ~6 W peak settles
around 75-80 degC over a 25 degC ambient with a time constant of a few
seconds -- representative of a passively cooled mobile SoC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ThermalParams:
    """RC parameters of one cluster's thermal path to ambient."""

    resistance_k_per_w: float = 9.0
    capacitance_j_per_k: float = 0.35
    ambient_c: float = 25.0

    def __post_init__(self) -> None:
        if self.resistance_k_per_w <= 0 or self.capacitance_j_per_k <= 0:
            raise ValueError("R and C must be positive")

    @property
    def time_constant_s(self) -> float:
        """``tau = R * C``: how fast the cluster heats/cools."""
        return self.resistance_k_per_w * self.capacitance_j_per_k

    def steady_state_c(self, power_w: float) -> float:
        """Temperature the cluster converges to at constant ``power_w``."""
        return self.ambient_c + power_w * self.resistance_k_per_w


@dataclass(frozen=True)
class ThermalProtectionConfig:
    """Trip ladder of the :class:`~repro.core.resilience.ThermalSupervisor`.

    The four ascending thresholds gate the graduated responses -- warn
    (price surcharge), throttle (V-F ceiling), shed (migrate off the hot
    cluster) and trip (hot-unplug).  A rung is left again only once the
    temperature falls ``hysteresis_k`` below its entry threshold, so the
    ladder cannot chatter on a temperature hovering at a threshold.

    Attributes:
        warn_c: Entry threshold of the WARN rung.
        throttle_c: Entry threshold of the THROTTLE rung.
        shed_c: Entry threshold of the SHED rung.
        trip_c: Entry threshold of the TRIP rung (hot-unplug).
        hysteresis_k: Cooling below ``entry - hysteresis_k`` steps one
            rung back down.
        check_period_s: How often the supervisor evaluates the ladder;
            each evaluation moves at most one rung per cluster.
        warn_surcharge: Fractional price surcharge applied chip-wide
            while any cluster sits at WARN or above (the chip agent sees
            power inflated by ``1 + warn_surcharge``).
        estimation_guard_k: Degrees added to every sensed temperature
            while the simulation's power-estimation supervisor reports a
            degraded signal (MARGIN or FALLBACK) -- with the power model
            suspect, the supervisor leans conservative and escalates
            earlier.  Inert without an estimation pipeline.
    """

    warn_c: float = 70.0
    throttle_c: float = 80.0
    shed_c: float = 90.0
    trip_c: float = 95.0
    hysteresis_k: float = 5.0
    check_period_s: float = 0.1
    warn_surcharge: float = 0.25
    estimation_guard_k: float = 2.0

    def __post_init__(self) -> None:
        if not self.warn_c < self.throttle_c < self.shed_c < self.trip_c:
            raise ValueError(
                "thresholds must ascend: warn < throttle < shed < trip"
            )
        if self.hysteresis_k <= 0:
            raise ValueError("hysteresis must be positive")
        if self.check_period_s <= 0:
            raise ValueError("check period must be positive")
        if self.warn_surcharge < 0:
            raise ValueError("warn surcharge must be non-negative")
        if self.estimation_guard_k < 0:
            raise ValueError("estimation guard band must be non-negative")


@dataclass(frozen=True)
class ThermalConfig:
    """Simulation-time thermal tracking (``SimConfig.thermal``).

    ``None`` (the default) keeps the engine exactly as before: no thermal
    state is created, stepped, sensed or recorded.

    Attributes:
        params: Per-cluster RC parameters; clusters not listed use the
            :class:`ThermalParams` defaults.
        sensor_noise_std_c: Gaussian noise on thermal sensor readings.
        cycle_threshold_k: Delta-T a reversal must exceed to count as a
            thermal cycle (see :class:`ThermalCycleCounter`).
        tcrit_c: Critical temperature; the engine accumulates the time
            any cluster's *true* temperature exceeds it.
        protection: Enables the graduated-degradation supervisor; ``None``
            tracks temperatures without acting on them.
    """

    params: Optional[Dict[str, ThermalParams]] = None
    sensor_noise_std_c: float = 0.0
    cycle_threshold_k: float = 3.0
    tcrit_c: float = 95.0
    protection: Optional[ThermalProtectionConfig] = None

    def __post_init__(self) -> None:
        if self.sensor_noise_std_c < 0:
            raise ValueError("sensor_noise_std_c must be non-negative")
        if self.cycle_threshold_k <= 0:
            raise ValueError("cycle_threshold_k must be positive")


class ThermalModel:
    """Integrates per-cluster temperatures from power samples.

    Exact exponential integration per step (unconditionally stable for
    any ``dt``)::

        T' = T_ss + (T - T_ss) * exp(-dt / tau)

    Two fault seams let the injector degrade the physics without touching
    the integrator: a per-cluster *resistance factor* (a clogged heatsink
    multiplies the thermal resistance, raising the steady state and
    slowing the response) and a per-cluster *power injection* (a thermal
    runaway adds heat the power model never accounted for).
    """

    def __init__(
        self,
        cluster_ids: Sequence[str],
        params: Optional[Dict[str, ThermalParams]] = None,
        initial_c: Optional[float] = None,
    ):
        if not cluster_ids:
            raise ValueError("need at least one cluster")
        self._params: Dict[str, ThermalParams] = {
            cid: (params or {}).get(cid, ThermalParams()) for cid in cluster_ids
        }
        self._temps: Dict[str, float] = {
            cid: (initial_c if initial_c is not None else p.ambient_c)
            for cid, p in self._params.items()
        }
        self._resistance_factor: Dict[str, float] = {
            cid: 1.0 for cid in self._params
        }
        self._power_injection_w: Dict[str, float] = {
            cid: 0.0 for cid in self._params
        }

    def temperature_c(self, cluster_id: str) -> float:
        return self._temps[cluster_id]

    def temperatures(self) -> Dict[str, float]:
        return dict(self._temps)

    def max_temperature_c(self) -> float:
        return max(self._temps.values())

    # -- fault seams (see repro.faults) -----------------------------------------
    def set_resistance_factor(self, cluster_id: str, factor: float) -> None:
        """Multiply the cluster's thermal resistance (cooling degradation)."""
        if factor <= 0 or not math.isfinite(factor):
            raise ValueError("resistance factor must be positive and finite")
        self._resistance_factor[cluster_id] = factor

    def set_power_injection(self, cluster_id: str, watts: float) -> None:
        """Add ``watts`` of unaccounted heat to the cluster (runaway)."""
        if watts < 0 or not math.isfinite(watts):
            raise ValueError("power injection must be non-negative and finite")
        self._power_injection_w[cluster_id] = watts

    def resistance_factor(self, cluster_id: str) -> float:
        return self._resistance_factor[cluster_id]

    def power_injection_w(self, cluster_id: str) -> float:
        return self._power_injection_w[cluster_id]

    def step(self, cluster_powers_w: Dict[str, float], dt: float) -> Dict[str, float]:
        """Advance all clusters by ``dt`` seconds; returns new temps."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        for cluster_id, params in self._params.items():
            power = (
                cluster_powers_w.get(cluster_id, 0.0)
                + self._power_injection_w[cluster_id]
            )
            factor = self._resistance_factor[cluster_id]
            resistance = params.resistance_k_per_w * factor
            steady = params.ambient_c + power * resistance
            tau = resistance * params.capacitance_j_per_k
            decay = math.exp(-dt / tau)
            self._temps[cluster_id] = steady + (
                self._temps[cluster_id] - steady
            ) * decay
        return self.temperatures()

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "temps": dict(self._temps),
            "resistance_factor": dict(self._resistance_factor),
            "power_injection_w": dict(self._power_injection_w),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._temps = {cid: float(t) for cid, t in state["temps"].items()}
        self._resistance_factor = {
            cid: float(f) for cid, f in state["resistance_factor"].items()
        }
        self._power_injection_w = {
            cid: float(w) for cid, w in state["power_injection_w"].items()
        }


@dataclass
class ThermalCycleCounter:
    """Counts thermal cycles: excursions beyond a delta-T threshold.

    A cycle is one reversal of direction with amplitude at least
    ``threshold_k`` -- the quantity reliability models (Coffin-Manson)
    grow with.  Feed it one temperature per sample.
    """

    threshold_k: float = 3.0
    cycles: int = 0
    _extreme: Optional[float] = field(default=None, repr=False)
    _direction: int = field(default=0, repr=False)

    def update(self, temperature_c: float) -> int:
        if self._extreme is None:
            self._extreme = temperature_c
            return self.cycles
        delta = temperature_c - self._extreme
        if self._direction >= 0:
            if delta > 0:
                self._extreme = temperature_c
            elif -delta >= self.threshold_k:
                self.cycles += 1
                self._direction = -1
                self._extreme = temperature_c
        if self._direction < 0:
            if delta < 0:
                self._extreme = temperature_c
            elif delta >= self.threshold_k:
                self.cycles += 1
                self._direction = 1
                self._extreme = temperature_c
        return self.cycles

    # -- snapshot/restore (checkpointing) ----------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "extreme": self._extreme,
            "direction": self._direction,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.cycles = state["cycles"]
        self._extreme = state["extreme"]
        self._direction = state["direction"]


def track_thermals(
    cluster_powers_series: Sequence[Tuple[float, Dict[str, float]]],
    cluster_ids: Sequence[str],
    params: Optional[Dict[str, ThermalParams]] = None,
    cycle_threshold_k: float = 3.0,
) -> Tuple[Dict[str, List[float]], Dict[str, int]]:
    """Replay a (dt, powers) series through the model.

    Returns per-cluster temperature traces and thermal-cycle counts --
    the offline path used to post-process a finished simulation's
    metrics without having run the thermal model live.
    """
    model = ThermalModel(cluster_ids, params=params)
    counters = {cid: ThermalCycleCounter(cycle_threshold_k) for cid in cluster_ids}
    traces: Dict[str, List[float]] = {cid: [] for cid in cluster_ids}
    for dt, powers in cluster_powers_series:
        temps = model.step(powers, dt)
        for cid in cluster_ids:
            traces[cid].append(temps[cid])
            counters[cid].update(temps[cid])
    return traces, {cid: c.cycles for cid, c in counters.items()}

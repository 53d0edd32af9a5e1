"""Online counter-based power estimation (the estimated-power mode).

The paper's governors read power from a perfect meter; production power
managers estimate it from performance counters through a regression
model that is biased, noisy and drifts.  This module closes that gap:

* :class:`EstimationConfig` -- opt-in configuration carried by
  ``SimConfig.estimation``; ``None`` (the default) leaves every existing
  run byte-identical.
* :class:`ClusterPowerEstimator` -- an exponentially-weighted recursive
  least squares (RLS) fit of one cluster's metered power against its
  aggregated counters, with ridge initialisation and a forgetting factor
  so the model tracks V-F regime changes.
* :class:`PowerEstimate` -- one cluster's estimate: value + confidence.
* :class:`PowerEstimator` -- the per-chip collection of cluster fits.
* :class:`EstimationManager` -- the engine-facing pipeline: each tick it
  samples the counters, updates the fit against the metered sample, runs
  the :class:`~repro.core.resilience.EstimatorSupervisor` (default on)
  and returns the power sample the governors will consume next tick.

The physics always runs on the true analytic model; only the governors'
*view* of power goes through the estimator, so a wrong model heats the
chip exactly the way it would on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hw.counters import (
    CYCLES_SCALE,
    CounterConfig,
    CounterEmitter,
    CounterSample,
)
from ..hw.sensors import SensorSample
from ..hw.topology import Chip

#: Feature vector length: intercept + the four aggregated counters.
N_FEATURES = 5


@dataclass(frozen=True)
class EstimationConfig:
    """Configuration of the estimated-power operating mode.

    Attributes:
        counters: Shape of the synthetic counter stream.
        forgetting: RLS forgetting factor in (0, 1]; smaller values track
            drift faster at the cost of noisier coefficients.
        ridge: Ridge regularisation strength; the inverse covariance is
            initialised to ``ridge * I`` so early estimates stay tame.
        innovation_window: Effective window (in ticks) of the
            exponentially-weighted innovation average that feeds
            divergence detection and confidence; at least 2.
        warmup_ticks: Ticks served from the metered sample while the
            fresh fit converges; the supervisor also stays quiet.
        supervised: Run the :class:`~repro.core.resilience.EstimatorSupervisor`
            sanity gates and degradation ladder (default on; disabling it
            serves raw estimates and is meant for experiments only).
        check_period_s: Seconds between supervisor ladder evaluations.
        innovation_gate_w: Innovation level (watts, per cluster) treated
            as the edge of healthy; the ladder's health score is the
            worst cluster's innovation EWMA divided by this gate.
        innovation_clamp_w: Hard per-tick sanity bound: an estimate
            farther than this from the metered reading is rejected for
            that tick (the metered value is served instead).
        margin_factor: Multiplier applied to served estimates on the
            MARGIN rung (> 1): over-reporting power makes every governor
            act conservatively while the model is suspect.
        hysteresis: Health-score slack subtracted from a rung's entry
            threshold before the ladder steps back down; below the
            FROZEN entry (1.0), since the score is never negative.
        recovery_checks: Consecutive healthy evaluations required per
            downward rung (with :attr:`hysteresis`, prevents flapping).
    """

    counters: CounterConfig = field(default_factory=CounterConfig)
    forgetting: float = 0.995
    ridge: float = 1.0
    innovation_window: int = 32
    warmup_ticks: int = 100
    supervised: bool = True
    check_period_s: float = 0.25
    innovation_gate_w: float = 1.0
    innovation_clamp_w: float = 4.0
    margin_factor: float = 1.25
    hysteresis: float = 0.25
    recovery_checks: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.counters, CounterConfig):
            raise ValueError("counters must be a CounterConfig")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(
                f"forgetting factor must be in (0, 1], got {self.forgetting}"
            )
        if self.ridge <= 0:
            raise ValueError(f"ridge must be positive, got {self.ridge}")
        if self.innovation_window < 2:
            raise ValueError(
                "innovation_window must be at least 2 ticks, got "
                f"{self.innovation_window}"
            )
        if self.warmup_ticks < 1:
            raise ValueError(
                f"warmup_ticks must be at least 1, got {self.warmup_ticks}"
            )
        if self.check_period_s <= 0:
            raise ValueError(
                f"check_period_s must be positive, got {self.check_period_s}"
            )
        if self.innovation_gate_w <= 0:
            raise ValueError(
                f"innovation_gate_w must be positive, got {self.innovation_gate_w}"
            )
        if self.innovation_clamp_w < self.innovation_gate_w:
            raise ValueError(
                "innovation_clamp_w must be at least innovation_gate_w "
                f"({self.innovation_gate_w}), got {self.innovation_clamp_w}"
            )
        if self.margin_factor <= 1.0:
            raise ValueError(
                f"margin_factor must exceed 1, got {self.margin_factor}"
            )
        if not 0 <= self.hysteresis < self.entries[0]:
            raise ValueError(
                "hysteresis must be non-negative and below the FROZEN entry "
                f"{self.entries[0]}, or the ladder can never leave FROZEN, "
                f"got {self.hysteresis}"
            )
        if self.recovery_checks < 1:
            raise ValueError(
                f"recovery_checks must be at least 1, got {self.recovery_checks}"
            )

    @property
    def entries(self) -> Tuple[float, float, float]:
        """Health-score entry thresholds of the FROZEN, MARGIN and
        FALLBACK rungs, in multiples of ``innovation_gate_w``."""
        return (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class PowerEstimate:
    """One cluster's estimated power and the model's confidence in it.

    ``confidence`` is in (0, 1]: 1 means the recent innovation (estimate
    minus metered) has been negligible against the configured gate; it
    decays towards 0 as the model diverges.
    """

    power_w: float
    confidence: float


def _features(totals: Dict[str, float], dt: float) -> List[float]:
    """Normalised feature vector for one cluster's counter totals."""
    return [
        1.0,
        totals["active_cycles"] / CYCLES_SCALE,
        totals["instr_proxy"] / CYCLES_SCALE,
        totals["mem_stall"] / CYCLES_SCALE,
        totals["idle_s"] / dt,
    ]


class ClusterPowerEstimator:
    """Exponentially-weighted RLS fit of one cluster's power.

    Standard RLS with forgetting factor ``lambda`` and ridge-initialised
    inverse covariance ``P = I / ridge``::

        k = P x / (lambda + x' P x)
        w <- w + k (y - w' x)
        P <- (P - k x' P) / lambda

    Pure Python on 5-vectors: a handful of multiplies per tick, and the
    whole state is JSON-trivial for bit-exact checkpointing.
    """

    def __init__(self, forgetting: float, ridge: float, innovation_window: int):
        self._forgetting = forgetting
        self.weights: List[float] = [0.0] * N_FEATURES
        self._P: List[List[float]] = [
            [(1.0 / ridge if i == j else 0.0) for j in range(N_FEATURES)]
            for i in range(N_FEATURES)
        ]
        self._alpha = 2.0 / (innovation_window + 1.0)
        self.innovation_ewma = 0.0
        self.frozen = False
        self.updates = 0

    def predict(self, x: List[float]) -> float:
        w = self.weights
        return sum(w[i] * x[i] for i in range(N_FEATURES))

    def update(self, x: List[float], y: float) -> float:
        """Observe one (features, metered watts) pair; returns innovation.

        The innovation EWMA always tracks -- even frozen, the supervisor
        needs to score the held model against fresh metered power to know
        when recovery is safe -- but coefficient and covariance updates
        stop while :attr:`frozen` is set.
        """
        innovation = y - self.predict(x)
        self.innovation_ewma += self._alpha * (abs(innovation) - self.innovation_ewma)
        if self.frozen:
            return innovation
        P = self._P
        Px = [sum(P[i][j] * x[j] for j in range(N_FEATURES)) for i in range(N_FEATURES)]
        denom = self._forgetting + sum(x[i] * Px[i] for i in range(N_FEATURES))
        k = [Px[i] / denom for i in range(N_FEATURES)]
        w = self.weights
        for i in range(N_FEATURES):
            w[i] += k[i] * innovation
        inv_forgetting = 1.0 / self._forgetting
        for i in range(N_FEATURES):
            ki = k[i]
            row = P[i]
            for j in range(N_FEATURES):
                row[j] = (row[j] - ki * Px[j]) * inv_forgetting
        self.updates += 1
        return innovation

    # -- snapshot/restore (checkpointing) -------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "weights": list(self.weights),
            "P": [list(row) for row in self._P],
            "innovation_ewma": self.innovation_ewma,
            "frozen": self.frozen,
            "updates": self.updates,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.weights = list(state["weights"])
        self._P = [list(row) for row in state["P"]]
        self.innovation_ewma = state["innovation_ewma"]
        self.frozen = state["frozen"]
        self.updates = state["updates"]


class PowerEstimator:
    """Per-cluster RLS fits plus the chip-level aggregate view."""

    def __init__(self, chip: Chip, config: EstimationConfig):
        self.config = config
        self._estimators: Dict[str, ClusterPowerEstimator] = {
            cluster.cluster_id: ClusterPowerEstimator(
                config.forgetting, config.ridge, config.innovation_window
            )
            for cluster in chip.clusters
        }
        self._last_features: Dict[str, List[float]] = {}

    @property
    def cluster_ids(self) -> List[str]:
        return list(self._estimators)

    def estimator_for(self, cluster_id: str) -> ClusterPowerEstimator:
        return self._estimators[cluster_id]

    @property
    def updates(self) -> int:
        """Unfrozen coefficient updates completed (any cluster's count)."""
        return max(e.updates for e in self._estimators.values())

    def update(
        self, counters: CounterSample, metered: SensorSample, chip: Chip, dt: float
    ) -> None:
        """Fit every cluster against one tick's counters + metered power."""
        totals = counters.cluster_totals(chip)
        for cluster_id, estimator in self._estimators.items():
            x = _features(totals[cluster_id], dt)
            self._last_features[cluster_id] = x
            y = metered.cluster_power_w.get(cluster_id, 0.0)
            estimator.update(x, y)

    def estimates(self) -> Dict[str, PowerEstimate]:
        """Current per-cluster estimates from the last observed features."""
        gate = self.config.innovation_gate_w
        out: Dict[str, PowerEstimate] = {}
        for cluster_id, estimator in self._estimators.items():
            x = self._last_features.get(cluster_id)
            watts = 0.0 if x is None else estimator.predict(x)
            confidence = 1.0 / (1.0 + estimator.innovation_ewma / gate)
            out[cluster_id] = PowerEstimate(power_w=watts, confidence=confidence)
        return out

    def health_score(self) -> float:
        """Worst cluster's innovation EWMA over the configured gate."""
        gate = self.config.innovation_gate_w
        return max(
            (e.innovation_ewma / gate for e in self._estimators.values()),
            default=0.0,
        )

    def freeze(self) -> None:
        for estimator in self._estimators.values():
            estimator.frozen = True

    def unfreeze(self) -> None:
        for estimator in self._estimators.values():
            estimator.frozen = False

    @property
    def frozen(self) -> bool:
        return any(e.frozen for e in self._estimators.values())

    # -- snapshot/restore (checkpointing) -------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        return {
            "estimators": {
                cid: est.snapshot_state() for cid, est in self._estimators.items()
            },
            "last_features": {
                cid: list(x) for cid, x in self._last_features.items()
            },
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        for cid, est_state in state["estimators"].items():
            self._estimators[cid].restore_state(est_state)
        self._last_features = {
            cid: list(x) for cid, x in state["last_features"].items()
        }


class EstimationManager:
    """The engine-facing estimation pipeline (one per simulation).

    Owns the counter emitter (wrappable by the fault injector), the
    per-cluster estimator and the supervisor; ``on_tick`` runs the whole
    chain after the engine's metered sensor read and returns the sample
    :meth:`~repro.sim.engine.Simulation.last_power_sample` will serve
    until the next tick.
    """

    def __init__(self, chip: Chip, config: EstimationConfig, seed: Optional[int]):
        self.config = config
        self.emitter = CounterEmitter(chip, config.counters, seed)
        self.estimator = PowerEstimator(chip, config)
        self.supervisor = None
        if config.supervised:
            # Local import: resilience must stay importable without this
            # module (it is part of repro.core's import chain).
            from .resilience import EstimatorSupervisor

            max_power = {
                cluster.cluster_id: cluster.max_power_w(chip.power_model)
                for cluster in chip.clusters
            }
            self.supervisor = EstimatorSupervisor(config, max_power)
        self.last_counter_sample: Optional[CounterSample] = None
        self.served_sample: Optional[SensorSample] = None
        self.ticks = 0

    @property
    def warmed_up(self) -> bool:
        return self.ticks >= self.config.warmup_ticks

    @property
    def degraded(self) -> bool:
        """Whether the supervisor has left the healthy rung (MARGIN+)."""
        if self.supervisor is None:
            return False
        return self.supervisor.degraded

    def raw_sample(self, metered: SensorSample) -> SensorSample:
        """Unsupervised estimated sample (frequencies copied from metered)."""
        estimates = self.estimator.estimates()
        cluster_power = {cid: est.power_w for cid, est in estimates.items()}
        return SensorSample(
            chip_power_w=sum(cluster_power.values()),
            cluster_power_w=cluster_power,
            cluster_frequency_mhz=dict(metered.cluster_frequency_mhz),
            cluster_voltage_v=dict(metered.cluster_voltage_v),
        )

    def on_tick(self, sim, metered: SensorSample) -> SensorSample:
        """Advance the pipeline one tick; returns the sample to serve."""
        counters = self.emitter.sample(sim.now, sim.dt)
        self.last_counter_sample = counters
        self.estimator.update(counters, metered, sim.chip, sim.dt)
        self.ticks += 1
        if not self.warmed_up:
            served = metered
        elif self.supervisor is not None:
            served = self.supervisor.on_tick(sim, self.estimator, metered)
        else:
            served = self.raw_sample(metered)
        self.served_sample = served
        return served

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "ticks": self.ticks,
            "warmed_up": self.warmed_up,
            "health_score": self.estimator.health_score(),
            "frozen": self.estimator.frozen,
        }
        if self.supervisor is not None:
            stats.update(self.supervisor.stats())
        return stats

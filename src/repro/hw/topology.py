"""Chip topology: cores grouped into V-F clusters.

Mirrors the paper's architecture model (section 2): a set of cores ``C``
grouped into voltage-frequency clusters ``V``; all cores of a cluster are
micro-architecturally identical and run at the cluster's single V-F level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from .dvfs import DVFSRegulator
from .power import CorePowerParams, PowerModel
from .vf import VFLevel, VFTable


@dataclass(eq=False)
class Core:
    """One physical core.

    Identity-based equality/hash: cores are unique physical entities and
    are used as dictionary keys by governors.

    The core's supply is entirely determined by its cluster's V-F level;
    the simulator writes back the observed ``utilization`` (fraction of the
    delivered cycles consumed by tasks) every tick, which the power model
    and the ondemand-style governors read.
    """

    core_id: str
    cluster: "Cluster"
    utilization: float = 0.0

    @property
    def supply_pus(self) -> float:
        """Current supply of this core in PUs (0 when cluster is off)."""
        cluster = self.cluster
        if not cluster.powered:
            return 0.0
        # Inlined cluster.level.supply_pus: this sits on the dispatch and
        # market hot paths, so skip the two intermediate property hops.
        return cluster.vf_table[cluster.regulator.level_index].frequency_mhz

    @property
    def max_supply_pus(self) -> float:
        """Supply at the cluster's maximum frequency."""
        return self.cluster.vf_table.max_level.supply_pus

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Core({self.core_id})"


class Cluster:
    """A voltage-frequency cluster of identical cores.

    Owns the V-F table, the DVFS regulator and the power-gating state.
    """

    def __init__(
        self,
        cluster_id: str,
        core_type: str,
        n_cores: int,
        vf_table: VFTable,
        power_params: CorePowerParams,
        transition_latency_s: float = 0.001,
        initial_level_index: Optional[int] = None,
    ):
        if n_cores < 1:
            raise ValueError("a cluster needs at least one core")
        self.cluster_id = cluster_id
        self.core_type = core_type
        self.vf_table = vf_table
        self.power_params = power_params
        start = 0 if initial_level_index is None else vf_table.clamp_index(initial_level_index)
        self.regulator = DVFSRegulator(
            table=vf_table, level_index=start, transition_latency_s=transition_latency_s
        )
        self.powered = True
        #: Multiplier on the cluster's true power draw (silicon aging /
        #: drift faults); 1.0 means the analytic model is exact.
        self.drift_factor = 1.0
        self.cores: List[Core] = [
            Core(core_id=f"{cluster_id}.{i}", cluster=self) for i in range(n_cores)
        ]

    # -- operating point ----------------------------------------------------------
    @property
    def level_index(self) -> int:
        return self.regulator.level_index

    @property
    def level(self) -> VFLevel:
        return self.vf_table[self.regulator.level_index]

    @property
    def frequency_mhz(self) -> float:
        return self.level.frequency_mhz if self.powered else 0.0

    @property
    def supply_pus(self) -> float:
        """Per-core supply of this cluster (paper's ``S_v``)."""
        if not self.powered:
            return 0.0
        return self.vf_table[self.regulator.level_index].frequency_mhz

    @property
    def max_supply_pus(self) -> float:
        return self.vf_table.max_level.supply_pus

    @property
    def capacity_pus(self) -> float:
        """Aggregate supply across all cores of the cluster."""
        return self.supply_pus * len(self.cores)

    @property
    def max_capacity_pus(self) -> float:
        return self.max_supply_pus * len(self.cores)

    # -- control ------------------------------------------------------------------
    def power_down(self) -> None:
        """Gate the cluster off: zero supply and zero power."""
        self.powered = False
        for core in self.cores:
            core.utilization = 0.0

    def power_up(self) -> None:
        self.powered = True

    def max_power_w(self, model: PowerModel) -> float:
        """Power with every core busy at the top V-F level, drift aside."""
        return model.max_cluster_power_w(
            self.power_params, self.vf_table.max_level, len(self.cores)
        )

    def power_w(self, model: PowerModel) -> float:
        """Current cluster power under ``model`` (paper's ``W_v``)."""
        watts = model.cluster_power_w(
            self.power_params,
            self.level,
            [c.utilization for c in self.cores],
            powered=self.powered,
        )
        # Branch kept off the hot path: with no drift fault active the
        # returned floats are bit-identical to the pre-drift code.
        if self.drift_factor != 1.0:
            watts *= self.drift_factor
        return watts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.cluster_id}, {self.core_type}x{len(self.cores)}, "
            f"{self.frequency_mhz:.0f}MHz)"
        )


class Chip:
    """The whole heterogeneous multi-core: a set of clusters.

    Provides the aggregate views the chip agent consumes: total power ``W``
    and the list of all cores/clusters.  Task placement lives in the
    simulator, not here -- the chip is pure hardware state.
    """

    def __init__(self, name: str, clusters: Sequence[Cluster], power_model: Optional[PowerModel] = None):
        if not clusters:
            raise ValueError("a chip needs at least one cluster")
        ids = [c.cluster_id for c in clusters]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate cluster ids")
        self.name = name
        self.clusters: List[Cluster] = list(clusters)
        self.power_model = power_model or PowerModel()
        self._clusters_by_id: Dict[str, Cluster] = {c.cluster_id: c for c in self.clusters}
        self._cores_by_id: Dict[str, Core] = {
            core.core_id: core for cluster in self.clusters for core in cluster.cores
        }

    # -- lookup -------------------------------------------------------------------
    def cluster(self, cluster_id: str) -> Cluster:
        return self._clusters_by_id[cluster_id]

    def core(self, core_id: str) -> Core:
        return self._cores_by_id[core_id]

    @property
    def cores(self) -> List[Core]:
        return [core for cluster in self.clusters for core in cluster.cores]

    def iter_cores(self) -> Iterator[Core]:
        for cluster in self.clusters:
            yield from cluster.cores

    # -- aggregates ---------------------------------------------------------------
    def total_power_w(self) -> float:
        """Chip power ``W`` = sum of cluster powers."""
        return sum(c.power_w(self.power_model) for c in self.clusters)

    def cluster_power_w(self, cluster_id: str) -> float:
        return self.cluster(cluster_id).power_w(self.power_model)

    def total_supply_pus(self) -> float:
        """Chip supply ``S`` = sum of per-cluster (per-core) supplies.

        Follows the paper's definition: the supply of a cluster is the
        supply of any one of its cores, and the chip supply is the sum of
        the cluster supplies.
        """
        return sum(c.supply_pus for c in self.clusters)

    def tick(self, dt: float) -> List[str]:
        """Advance all regulators; return ids of clusters whose V-F changed."""
        changed = []
        for cluster in self.clusters:
            if cluster.regulator.tick(dt):
                changed.append(cluster.cluster_id)
        return changed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Chip({self.name}, clusters={[c.cluster_id for c in self.clusters]})"

"""Task-to-core placement state (the mapping ``M`` of the paper).

Pure bookkeeping: which task currently lives on which core, with the
cluster-level views the agents need (``T_c``, ``T_v``, priority sums
``R_c``/``R_v``/``R``).  Mutation goes through the simulator's migration
manager so costs are charged consistently.

The mapping is held as an *incremental index*: per-core task lists plus
per-cluster task counts, both updated in O(1) on every place/remove, so
the engine's per-tick queries (dispatch, power gating, default placement)
never rescan the whole task population.  ``rebuild_index`` reconstructs
the derived structures from the authoritative task->core map; the
property tests assert the incremental index always matches that rebuild.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..hw.topology import Chip, Cluster, Core
from ..tasks.task import Task


class Placement:
    """Bidirectional task <-> core mapping over one chip."""

    def __init__(self, chip: Chip):
        self._chip = chip
        #: Monotonic mutation counter: bumped by every :meth:`place` /
        #: :meth:`remove`, so callers holding derived structures (the
        #: columnar engine's struct-of-arrays epoch) can detect staleness
        #: with one integer compare instead of rescanning the mapping.
        self.version: int = 0
        self._core_of: Dict[Task, str] = {}
        self._tasks_on: Dict[str, List[Task]] = {core.core_id: [] for core in chip.cores}
        self._cluster_of_core: Dict[str, str] = {
            core.core_id: core.cluster.cluster_id for core in chip.cores
        }
        self._cluster_count: Dict[str, int] = {
            cluster.cluster_id: 0 for cluster in chip.clusters
        }

    @property
    def chip(self) -> Chip:
        return self._chip

    # -- queries ------------------------------------------------------------------
    def core_of(self, task: Task) -> Optional[Core]:
        """The core ``task`` is mapped to, or ``None`` if unplaced."""
        core_id = self._core_of.get(task)
        return self._chip.core(core_id) if core_id is not None else None

    def cluster_of(self, task: Task) -> Optional[Cluster]:
        core = self.core_of(task)
        return core.cluster if core is not None else None

    def tasks_on_core(self, core: Core) -> List[Task]:
        """``T_c``: tasks mapped to ``core`` (insertion order)."""
        return list(self._tasks_on[core.core_id])

    def iter_tasks_on_core(self, core: Core) -> List[Task]:
        """The internal ``T_c`` list, *not* copied.

        Hot-path accessor for the engine's dispatch loop; callers must
        not mutate the returned list (use :meth:`place`/:meth:`remove`).
        """
        return self._tasks_on[core.core_id]

    def tasks_on_cluster(self, cluster: Cluster) -> List[Task]:
        """``T_v``: tasks mapped to any core of ``cluster``."""
        tasks: List[Task] = []
        for core in cluster.cores:
            tasks.extend(self._tasks_on[core.core_id])
        return tasks

    def has_tasks(self, cluster: Cluster) -> bool:
        """Whether any task is mapped to ``cluster`` (O(1))."""
        return self._cluster_count[cluster.cluster_id] > 0

    def all_tasks(self) -> List[Task]:
        return list(self._core_of.keys())

    def placed_count(self) -> int:
        return len(self._core_of)

    def is_placed(self, task: Task) -> bool:
        return task in self._core_of

    # -- priority sums (paper's R_c, R_v, R) ----------------------------------------
    def priority_sum_core(self, core: Core) -> int:
        return sum(t.priority for t in self._tasks_on[core.core_id])

    def priority_sum_cluster(self, cluster: Cluster) -> int:
        return sum(self.priority_sum_core(core) for core in cluster.cores)

    def priority_sum_chip(self) -> int:
        return sum(t.priority for t in self._core_of)

    # -- mutation -----------------------------------------------------------------
    def place(self, task: Task, core: Core) -> None:
        """Place or move ``task`` onto ``core`` (no cost accounting)."""
        self.remove(task)
        self._core_of[task] = core.core_id
        self._tasks_on[core.core_id].append(task)
        self._cluster_count[self._cluster_of_core[core.core_id]] += 1
        self.version += 1

    def remove(self, task: Task) -> None:
        core_id = self._core_of.pop(task, None)
        if core_id is not None:
            self._tasks_on[core_id].remove(task)
            self._cluster_count[self._cluster_of_core[core_id]] -= 1
            self.version += 1

    def empty_clusters(self) -> List[Cluster]:
        """Clusters with no mapped tasks (candidates for power gating)."""
        return [
            c for c in self._chip.clusters if self._cluster_count[c.cluster_id] == 0
        ]

    def least_loaded_core(
        self,
        cores: Iterable[Core],
        t: float,
        exclude: Optional[Task] = None,
        cache: Optional[Dict[str, float]] = None,
    ) -> Core:
        """Core with the smallest summed true demand -- default placement.

        ``cache`` (core_id -> load sum) memoizes loads across a batch of
        placements at one instant ``t``; the caller must add each newly
        placed task's demand to its core's entry (or evict the entry).
        An incremental update is bit-identical to recomputing -- the
        fresh sum is the same left-to-right fold extended by one term --
        so batch placement of N tasks drops from O(N^2) demand
        evaluations to O(N) without moving a single placement decision.
        """
        candidates = list(cores)
        if not candidates:
            raise ValueError("no candidate cores")

        def load(core: Core) -> float:
            return sum(
                task.true_demand_pus(core.cluster.core_type, t)
                for task in self._tasks_on[core.core_id]
                if task is not exclude
            )

        if cache is None:
            return min(candidates, key=load)

        def cached_load(core: Core) -> float:
            value = cache.get(core.core_id)
            if value is None:
                value = load(core)
                cache[core.core_id] = value
            return value

        return min(candidates, key=cached_load)

    # -- index integrity ----------------------------------------------------------
    def rebuild_index(self) -> Tuple[Dict[str, List[Task]], Dict[str, int]]:
        """Recompute the derived index from the task->core map alone.

        Returns ``(tasks_on, cluster_count)`` in the same shapes the
        incremental structures use.  Per-core order is the task-insertion
        order of ``_core_of`` filtered by core, which is exactly what the
        incremental lists maintain (append on place, remove on unplace).
        """
        tasks_on: Dict[str, List[Task]] = {
            core.core_id: [] for core in self._chip.cores
        }
        cluster_count: Dict[str, int] = {
            cluster.cluster_id: 0 for cluster in self._chip.clusters
        }
        for task, core_id in self._core_of.items():
            tasks_on[core_id].append(task)
            cluster_count[self._cluster_of_core[core_id]] += 1
        return tasks_on, cluster_count

    def index_consistent(self) -> bool:
        """Whether the incremental index matches a from-scratch rebuild.

        Strict: per-core lists must match element-for-element.  ``place``
        moves the task to the end of both the authoritative map and its
        core's list, so the orders coincide exactly.
        """
        tasks_on, cluster_count = self.rebuild_index()
        if cluster_count != self._cluster_count:
            return False
        for core_id, expected in tasks_on.items():
            actual = self._tasks_on[core_id]
            if len(actual) != len(expected) or any(
                a is not b for a, b in zip(actual, expected)
            ):
                return False
        return True

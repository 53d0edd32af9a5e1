"""The graduated ladder walked by the thermal, estimator and admission
supervisors; each owner keeps its own side effects, counters and
transition log around it."""

from __future__ import annotations

from enum import Enum
from typing import Sequence, Type


class Ladder:
    """A rank on an ordered enum, moved by one scalar signal per check.

    Each :meth:`step` moves at most one rung: up when the signal is at or
    above the next rung's entry threshold, down only after ``recovery``
    consecutive checks below the current rung's entry minus
    ``hysteresis``.  Any other check resets that calm streak.

    Args:
        rungs: The state enum; definition order is bottom to top.
        entries: Ascending entry threshold of every rung above the bottom.
        hysteresis: Slack below the current entry before a check is calm.
        recovery: Consecutive calm checks needed to step one rung down.
    """

    def __init__(
        self, rungs: Type[Enum], entries: Sequence[float], hysteresis: float,
        recovery: int = 1,
    ):
        self.rungs = tuple(rungs)
        self.entries = tuple(entries)
        if len(self.entries) != len(self.rungs) - 1:
            raise ValueError("need one entry threshold per rung above the bottom")
        self.hysteresis = hysteresis
        self.recovery = recovery
        self._rank_of = {rung: rank for rank, rung in enumerate(self.rungs)}
        self.rank = 0
        self.calm = 0

    @property
    def state(self) -> Enum:
        return self.rungs[self.rank]

    @state.setter
    def state(self, rung: Enum) -> None:
        self.rank = self._rank_of[rung]

    def reached(self, rung: Enum) -> bool:
        """Whether the ladder sits at ``rung`` or above it."""
        return self.rank >= self._rank_of[rung]

    def step(self, signal: float) -> int:
        """Evaluate one signal; returns +1 (climbed), -1 (descended) or 0."""
        rank = self.rank
        if rank < len(self.entries) and signal >= self.entries[rank]:
            self.rank = rank + 1
            self.calm = 0
            return 1
        if rank > 0 and signal < self.entries[rank - 1] - self.hysteresis:
            self.calm += 1
            if self.calm >= self.recovery:
                self.rank = rank - 1
                self.calm = 0
                return -1
            return 0
        self.calm = 0
        return 0

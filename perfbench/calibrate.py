"""Host-speed calibration: times a fixed kernel between operations.

The benchmark runs on shared 2-core VMs whose speed drifts by up to 2x
over tens of seconds (neighbouring tenants), far beyond any bound a
regression gate could use.  A fixed kernel -- part of the benchmark,
never of the program under test -- is timed before and after every
operation, and the operation's host times are scaled to what a
reference host would have taken: ``time * REFERENCE_NS / kernel_ns``.
A change to the program moves the scaled times exactly as it moves the
raw ones; drift of the host cancels to the extent the kernel feels it.

The kernel is the geometric mean of two parts that bracket the
simulator's mix: Python objects, dicts, floats and small NumPy vectors
(the per-tick engine and market code), and NumPy passes over a 1.6 MB
array with a random gather (the columnar kernels at 1,000 tasks).
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy

#: The kernel's median time on the reference host: a quiet 2-core
#: x86-64 VM at 2.0 GHz with Python 3.11 and NumPy 2.4.  Scaled times
#: read as host times on that VM when it has no noisy neighbours.
REFERENCE_NS = 550_000

_REPEATS = 5


class _Record:
    __slots__ = ("key", "value", "slots")

    def __init__(self, key: float):
        self.key = key
        self.value = key * 0.5
        self.slots = {}


class Calibrator:
    """Measures the kernel; owns the kernel's preallocated arrays."""

    def __init__(self) -> None:
        self._array = numpy.arange(200_000, dtype=float)
        self._gather = numpy.random.default_rng(0).integers(0, 200_000, 50_000)

    def _objects(self) -> float:
        records = [_Record(float(i)) for i in range(600)]
        sums = {}
        acc = 0.0
        vector = numpy.arange(64, dtype=float)
        for i, record in enumerate(records):
            k = i % 37
            sums[k] = sums.get(k, 0.0) + record.value
            record.slots[k] = math.exp(-record.key * 1e-3)
            acc += record.slots[k] * record.value
            if i % 8 == 0:
                vector = vector * 1.0001 + 0.5
                acc += float(vector.sum())
        records.sort(key=lambda r: -r.value)
        return acc

    def _arrays(self) -> float:
        scaled = self._array * 1.5 + 2.0
        return float(scaled.sum()) + float(self._array[self._gather].sum())

    def measure(self) -> float:
        """Kernel time in ns: geometric mean of the parts' medians."""
        gc.disable()  # a collection of the caller's heap is not host speed
        try:
            medians = []
            for part in (self._objects, self._arrays):
                times = []
                for _ in range(_REPEATS):
                    start = time.perf_counter_ns()
                    part()
                    times.append(time.perf_counter_ns() - start)
                medians.append(statistics.median(times))
            return math.sqrt(medians[0] * medians[1])
        finally:
            gc.enable()

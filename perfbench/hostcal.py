"""Host-speed calibration: a fixed kernel timed between the benchmark's jobs.

The benchmark runs on a few cores of a shared host whose speed drifts by half
or more over minutes, so one commit's wall times, taken ten minutes apart,
differ by more than any useful regression bound.  A fixed kernel that does
not touch streamcut is timed before the first step and after every step
(set-up repetition or job), and each reported time is scaled by
``REFERENCE_S / mean kernel time`` of the same phase of the run.  The result
is in *reference seconds*: the time the work would take on a host that runs
the kernel in ``REFERENCE_S``.  Raw wall times are printed beside every
scaled one.

The kernel mixes what streamcut's jobs do: a Python breadth-first search
over adjacency lists, dict inserts, a random numpy gather and a numpy sort.
Its data is built once, from a fixed seed, outside every timed region.

Means, not medians, are compared: the host's slow spells last fractions of a
second and hit jobs and kernel runs alike, and a median of short kernel runs
drops them where a median of long jobs cannot.  In 100 s of sbm2-c1 jobs on
a 2-vCPU VM whose speed held steady, windows of 7 jobs gave a coefficient of
variation of 0.040 for mean job ÷ mean kernel time, 0.039 for the raw median
job time, and 0.060 for median job ÷ median kernel time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.1
SAMPLES_PER_GAP = 4  # kernel runs between two jobs

_NODES = 10_000
_DEGREE = 4
_GATHER = 1 << 17
_ROUNDS = 8  # passes over the data per kernel run; the data stays a few MB


class HostClock:
    """The calibration kernel and the wall time of each of its runs."""

    def __init__(self):
        rng = np.random.default_rng(20250217)
        self._adjacency = rng.integers(0, _NODES, size=(_NODES, _DEGREE)).tolist()
        self._table = rng.integers(0, 1 << 40, size=_GATHER)
        self._index = rng.integers(0, _GATHER, size=_GATHER)
        self.samples: list[float] = []

    def _kernel(self) -> int:
        adjacency = self._adjacency
        reached = 0
        for start in range(_ROUNDS):
            seen = bytearray(_NODES)
            queue = [start]
            seen[start] = 1
            for u in queue:
                for v in adjacency[u]:
                    if not seen[v]:
                        seen[v] = 1
                        queue.append(v)
            order = {u: i for i, u in enumerate(queue)}
            gathered = self._table[np.roll(self._index, start)]
            reached += len(order) + int(np.sort(gathered)[_GATHER // 2] & 1)
        return reached

    def sample(self) -> None:
        """Runs the kernel SAMPLES_PER_GAP times and keeps each run's wall time."""
        for _ in range(SAMPLES_PER_GAP):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)


def scale(samples: list[float]) -> float:
    """Reference seconds per wall second, from kernel times of one phase of a run."""
    return REFERENCE_S / statistics.fmean(samples)

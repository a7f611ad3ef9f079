"""Host-speed probe: a fixed piece of work timed between measured ops.

On a shared host the same code runs up to ~3x slower from one minute to the
next, swinging within seconds (neighbours' load on the physical machine;
none of it shows as load or stolen time inside the VM), so a raw time says
as much about the neighbours as about the program.  Every timed phase
therefore runs this probe — a pure-Python walk over an adjacency dict plus
small numpy gathers, the benchmark's own code, which no change to the
program under test can speed up or slow down — at short intervals of
measured work, and rescales each CPU-bound time measured between two
samples to the reference host:

    speed    = (PROBE_REFERENCE_MS / sample time) ** PROBE_EXPONENT
    reported = measured * mean speed of the samples around it

Wall-clock times are rescaled by the samples' wall times and CPU times by
their CPU times.  On the reference host, idle, the factor is ~0.9; the raw
record keeps the unscaled metrics beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

import numpy as np

#: Median time of one :meth:`SpeedProbe.sample` on the reference host
#: (2-vCPU Intel Xeon VM, CPython 3, idle).
PROBE_REFERENCE_MS = 1.1
#: Seconds of measured work between two probe samples in a closed loop.
#: Host speed swings within a second, so samples must sit close to the ops.
PROBE_EVERY_S = 0.04
#: A block of ops is rescaled by the probe samples that bracket it.
PROBE_WINDOW = 1
#: The program slows a little more than the probe.  On a host running 1.5x
#: to 2.9x slower than idle, rescaled ``ego_scale`` and ``paper_live``
#: throughput read 5-15 % below their idle-host values with exponent 1 and
#: 5-9 % above with 1.2; the per-run fits gave 1.06-1.18.
PROBE_EXPONENT = 1.1

_VERTICES = 1000
_DEGREE = 8
_ROOTS = (0, 337, 711)


class SpeedProbe:
    """Times a fixed workload; keeps every sample's wall and CPU seconds."""

    def __init__(self, seed: int = 0x5BD1E995) -> None:
        rng = random.Random(seed)
        self._adjacency = {
            v: [rng.randrange(_VERTICES) for _ in range(_DEGREE)] for v in range(_VERTICES)
        }
        gen = np.random.default_rng(seed)
        self._targets = gen.integers(0, _VERTICES, size=_VERTICES * _DEGREE)
        self._offsets = np.arange(0, _VERTICES * _DEGREE + 1, _DEGREE)
        self._weights = gen.random(_VERTICES * _DEGREE)
        self.wall: List[float] = []
        self.cpu: List[float] = []
        for _ in range(3):
            self._work()

    def _work(self) -> float:
        # Python part: breadth-first walks with dict and set traffic.
        total = 0
        for root in _ROOTS:
            seen = {root}
            frontier = [root]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in self._adjacency[v]:
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
                frontier = nxt
            total += len(seen)
        # numpy part: row-slice gathers and a scatter-min, as on CSR rows.
        best = np.full(_VERTICES, np.inf)
        rows = np.arange(0, _VERTICES, 3)
        for _ in range(4):
            starts, ends = self._offsets[rows], self._offsets[rows + 1]
            idx = np.repeat(starts, ends - starts) + (
                np.arange(int((ends - starts).sum())) % _DEGREE
            )
            np.minimum.at(best, self._targets[idx], self._weights[idx])
            rows = np.unique(self._targets[idx[::5]])
        return total + float(best[np.isfinite(best)].sum())

    def sample(self, times: int = 1) -> None:
        """Time ``times`` passes, each after an untimed pass that brings the
        probe's data back into cache (so the program's own cache footprint
        does not move the probe)."""
        for _ in range(times):
            self._work()
            wall, cpu = time.perf_counter(), time.thread_time()
            self._work()
            self.cpu.append(time.thread_time() - cpu)
            self.wall.append(time.perf_counter() - wall)

    def factor(self, lo: int, hi: int, cpu: bool = False) -> float:
        """Mean host speed over samples ``[lo, hi)``, relative to the reference.

        The mean of per-sample speeds (reference time over sample time), not
        reference over a mean or median time: while the speed swings, the
        work done in a stretch of time follows its mean speed, and a sample
        stalled by a neighbour adds little to it."""
        samples = (self.cpu if cpu else self.wall)[max(0, lo):hi]
        return statistics.fmean(
            (PROBE_REFERENCE_MS / 1000.0 / t) ** PROBE_EXPONENT for t in samples
        )

    def block_factors(self, cpu: bool = False) -> List[float]:
        """Factor of block ``b``, the ops between samples ``b`` and ``b + 1``."""
        return [self.factor(b + 1 - PROBE_WINDOW, b + 1 + PROBE_WINDOW, cpu)
                for b in range(len(self.wall) - 1)]

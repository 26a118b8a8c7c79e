"""A fixed computation that times the host, not the program.

On a shared host the same operation runs up to twice as slow in some
stretches as in others, and the slow stretches last minutes: longer
than a run, so no estimator over one run's samples removes them.  Each
run therefore also times :func:`reference_ms` between the workload's
operations, and reports its timings scaled to a host on which the
reference takes :data:`REFERENCE_MS`.  The reference does not touch the
program, so a change to the program moves the scaled figures exactly as
it moves the measured ones; what scales away is how fast the host ran.

The reference mixes what the program spends its time on: elimination
over F2 rows held in Python ints (as the planner's F2 solves do), a
dict keyed by tuples (as the caches and layout tables are), and a
NumPy object-array gather (as the simulator's register files are).  It
runs with the garbage collector off, so it never pays for collecting
the program's objects.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Sequence

import numpy as np

#: The reference's time on the host the benchmark was written on (a
#: 2-CPU container, Python 3.11), in a quiet stretch: the scaled
#: timings read as if every run had that host to itself.
REFERENCE_MS = 0.5

_RNG = random.Random(7)
_ROWS = [_RNG.getrandbits(48) for _ in range(48)]
_VALUES = np.array([(i * 37) % 1021 for i in range(4096)], dtype=object)
_GATHER = np.array([(i * 97) % 4096 for i in range(4096)])


def _compute() -> int:
    rows = list(_ROWS)
    rank = 0
    for bit in range(48):
        mask = 1 << bit
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    table = {(i & 31, i >> 5, i * 3): i for i in range(400)}
    total = sum(table[(i & 31, i >> 5, i * 3)] for i in range(400))
    gathered = _VALUES[_GATHER]
    return rank + total + int((gathered == _VALUES[_GATHER]).all())


def reference_ms() -> float:
    """Run the reference once; its wall time in ms."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _compute()
        return (time.perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()


def run_reference_ms(samples: Sequence[Sequence[float]]) -> float:
    """The reference's time over a run, estimated as the operations'
    are: ``samples`` holds one list per pass, each reference call at the
    same position on every pass; each position keeps its lowest time
    and the result is their mean (ms)."""
    minima = [min(position) for position in zip(*samples)]
    return math.fsum(minima) / len(minima)

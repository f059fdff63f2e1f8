"""Host-speed reference: one pinned CPU and a fixed slice of work.

On the shared 2-vCPU VMs this benchmark runs on, each vCPU flips
between a fast state and one ~1.45x slower, for seconds to minutes at a
time and independently of the other vCPU; a process's CPU time inflates
exactly like its wall time, so it is the core that is slower.  Raw
floor p50s of one commit differed by 18 % between back-to-back runs.

So the benchmark pins itself -- and with it every process it starts --
to one CPU.  Client and server strictly alternate there (one request
outstanding), so they never compete, and a *reference slice* run by the
client sees the very state the server saw a moment earlier (a slice on
the other vCPU correlates 0.29 with the server's round time; on the same
one, 0.95-0.98).  Times are scaled by ``NOMINAL_SLICE / slice``, i.e.
reported "at the speed where the slice takes 250 us", about this VM's
fast state.  See bench/README.md for the numbers.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
import statistics
from collections.abc import Sequence
from time import perf_counter

import numpy as np

#: Seconds one reference slice takes at the speed all times are
#: normalised to.
NOMINAL_SLICE = 250e-6

_SORTED = np.arange(64, dtype=np.int64) * 3
_rng = random.Random(5)
#: 256 KB read at seeded random offsets: cold in L1/L2 after the server
#: ran, like the server's own data, so the slice feels cache and memory
#: contention from neighbouring VMs and not only a slower pipeline.
_BLOCK = bytes(_rng.randrange(256) for _ in range(1 << 18))
_OFFSETS = [[_rng.randrange(1 << 18) for _ in range(800)] for _ in range(64)]
_turn = 0


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def width(self) -> float:
        return self.hi - self.lo


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to one allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_slice() -> float:
    """Seconds a fixed slice of work takes right now.

    Half of it is the interpreter mix the server runs per request --
    heap pushes and pops of tuples, small slotted objects, float maths,
    string-keyed dict writes, a JSON round trip, numpy scalar calls --
    and half is 800 scattered byte reads.  (A bare arithmetic loop
    tracked the server's round time with correlation 0.82-0.93; this
    with 0.95-0.98.)
    """
    global _turn
    offsets = _OFFSETS[_turn & 63]
    _turn += 1
    start = perf_counter()
    heap: list = []
    seen = {}
    for i in range(60):
        interval = _Interval(i * 0.5, i * 0.75 + 1.0)
        heapq.heappush(heap, (math.hypot(interval.lo, interval.hi), i, interval))
        seen[f"k{i & 15}"] = interval.width()
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps({"ids": list(range(10)), "distances": [0.5] * 10}))
    int(np.searchsorted(_SORTED, 77))
    int(np.searchsorted(_SORTED, 12))
    total = 0
    block = _BLOCK
    for offset in offsets:
        total += block[offset]
    return perf_counter() - start


def factor(slices: Sequence[float]) -> float:
    """Scale from measured to nominal speed, given slices taken around the work."""
    return NOMINAL_SLICE / statistics.fmean(slices)


def factors(slices: list[float]) -> list[float]:
    """Per-call scales from the ``len(calls) + 1`` slices taken around the calls."""
    return [factor(pair) for pair in zip(slices, slices[1:], strict=False)]


def bracket(count: int = 8) -> list[float]:
    """A burst of slices, for bracketing work too long to interleave with."""
    return [reference_slice() for _ in range(count)]

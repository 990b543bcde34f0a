"""How fast the host runs right now, measured on fixed Python work.

The machines this benchmark runs on are shared: the same run of the
same seed has read up to twice as fast from one half hour to the next,
while runs a minute apart agree within about one percent.  Each
repetition therefore times a fixed piece of pure-Python work shaped
like the scheduler's inner loops (tuple keys, dict memo reads and
writes, bisect over a sorted list, a sort), once before and once after
its run.  Host times are scaled by ``REFERENCE_BLOCK_S`` over the
median block time, so they read as on a host that runs the block in
``REFERENCE_BLOCK_S``.  The work touches none of the program's code,
so a change to the program moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import bisect
import time
from statistics import median
from typing import List

__all__ = ["REFERENCE_BLOCK_S", "probe_blocks", "host_factor"]

#: Median block time of the reference host (a 2-core 2.1 GHz VM in an
#: uncontended phase); any constant would do, it only sets the scale.
REFERENCE_BLOCK_S = 0.015

#: Blocks timed per probe.
BLOCKS = 9


def _block() -> int:
    free = list(range(0, 8192, 3))
    memo: dict = {}
    total = 0
    for i in range(120_000):
        key = (i % 509, i % 7)
        hit = memo.get(key)
        if hit is None:
            at = bisect.bisect_left(free, (i * 31) % 8192)
            hit = memo[key] = (at, free[at % len(free)])
        total += hit[0]
    return total + sorted(memo.values())[-1][1]


def probe_blocks() -> List[float]:
    """Host seconds of ``BLOCKS`` runs of the fixed work."""
    times = []
    for _ in range(BLOCKS):
        started = time.perf_counter()
        _block()
        times.append(time.perf_counter() - started)
    return times


def host_factor(block_times: List[float]) -> float:
    """Reference over measured speed: multiply host times by this."""
    return REFERENCE_BLOCK_S / median(block_times)

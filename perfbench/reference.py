"""A fixed pure-Python kernel that measures how fast the host runs right now.

A shared host's speed drifts by tens of percent over seconds, and it slows
the simulator and this kernel alike.  The benchmark times the kernel just
before and just after each timed cell and rescales that timing (set-up time
by the run's median reading) to a host on which the kernel takes
``REFERENCE_S``: the kernel's time on the shared 2-CPU, 2.0 GHz host the
benchmark was defined on.  The kernel mixes
what the simulator's hot path does (heap pushes and pops of event tuples,
slotted attribute updates, method calls, dict counting) and is independent
of the program, so a change to the program moves the rescaled timing and a
change in host speed does not.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

__all__ = ["REFERENCE_S", "host_speed", "normalize"]

REFERENCE_S = 0.003
_REPEATS = 7
_STEPS = 4000


class _Item:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def step(self, x: int) -> int:
        self.total += x
        return self.total & 7


def _kernel() -> float:
    started = time.perf_counter()
    heap: list = []
    counts: dict = {}
    items = [_Item(i) for i in range(64)]
    for i in range(_STEPS):
        heapq.heappush(heap, (i * 7919 % 1000, i, items[i & 63]))
        if len(heap) > 32:
            _, _, item = heapq.heappop(heap)
            key = item.step(i)
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def host_speed() -> float:
    """Seconds the kernel takes now: the median of several tries, which
    followed the simulator's speed more closely than the best try did.  The
    garbage collector is paused so that a collection of the program's
    objects is not billed to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(_REPEATS))
    finally:
        if enabled:
            gc.enable()


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two :func:`host_speed` readings,
    rescaled to the reference host."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)

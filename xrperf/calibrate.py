"""A fixed pure-Python kernel that measures how fast this machine runs now.

Shared machines drift: the same pass can take 1.5x longer a minute
later.  The kernel is built from the operations the simulator's event
loop spends its time on (heap pushes and pops, dict updates, bisection,
attribute reads on slotted records, float arithmetic) and touches no
``repro`` code, so changes to the program never move it.
"""

from __future__ import annotations

import gc
import heapq
import time
from bisect import insort


class _Item:
    __slots__ = ("key", "due", "weight")

    def __init__(self, key: int, due: float, weight: float) -> None:
        self.key = key
        self.due = due
        self.weight = weight


#: Records per kernel run: about 30 ms on the reference box.
_RECORDS = 20000


def kernel() -> float:
    """Seconds one run of the kernel takes (no result is kept).

    The collector is off while it runs: the kernel makes no cycles, and
    a collection would scan the caller's heap, which grows with the
    program's caches, not with the machine's speed.
    """
    gc.disable()
    try:
        return _timed(_RECORDS)
    finally:
        gc.enable()


def _timed(n: int) -> float:
    start = time.perf_counter()
    heap: list[tuple[float, int, _Item]] = []
    latest: dict[int, _Item] = {}
    order: list[float] = []
    total = 0.0
    for i in range(n):
        item = _Item(i % 97, (i * 7919 % 10007) / 10007.0, i * 0.5)
        heapq.heappush(heap, (item.due, i, item))
        latest[item.key] = item
        if i % 8 == 0:
            insort(order, item.due)
    while heap:
        due, _, item = heapq.heappop(heap)
        total += item.weight * due
        if latest.get(item.key) is item:
            del latest[item.key]
    return time.perf_counter() - start

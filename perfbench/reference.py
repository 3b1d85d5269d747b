"""A fixed reference computation that measures how fast the host runs right now.

On a shared 2-vCPU virtual machine the host's speed drifts by 20% or more
over tens of seconds, for all code alike.  The benchmark runs
``reference_work`` between units and scales each unit's time by
``REFERENCE_S`` divided by the reference time measured around it.  The
scaled times read in seconds at the host speed where ``reference_work``
takes ``REFERENCE_S``.  A change to the program moves them fully, because
this code does not depend on the program.

The work imitates the program's kind of Python: small slotted objects,
tuples as keys, dict and set updates, frozenset algebra, comparisons and
method calls.  It is deterministic and allocates only a small working set.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List

# About the median time of one ``reference_work`` call on a 2-vCPU Intel
# Xeon VM with Python 3.11 in a quiet period.  It sets the scale of the
# scaled metrics only; the ratios between runs do not depend on it.
REFERENCE_S = 0.020


class _Cell:
    __slots__ = ("key", "value", "seen")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.seen = frozenset((key[0], key[1] % 7))

    def joins(self, other: "_Cell") -> bool:
        return self.value < other.value or bool(self.seen & other.seen)


def reference_work(rounds: int = 12) -> int:
    """About 20 ms of interpreter work of the program's kind; returns a checksum."""
    total = 0
    for r in range(rounds):
        table = {}
        cells = []
        state = 12345 + r
        for i in range(900):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = (state % 97, i % 31)
            cell = _Cell(key, state % 1009)
            cells.append(cell)
            prev = table.get(key)
            if prev is None or cell.joins(prev):
                table[key] = cell
        pool = frozenset(c.key for c in cells[::3])
        for cell in cells[::5]:
            if cell.key in pool and (cell.seen | {r}) - {0}:
                total += cell.value
        total += len(table) + sum(max(c.value, 1) for c in table.values()) % 997
    return total


def sample(seconds: float, min_reps: int = 1, max_reps: int = 64) -> float:
    """Run ``reference_work`` for about ``seconds``; return the median call time."""
    times: List[float] = []
    began = time.perf_counter()
    while len(times) < max_reps:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        times.append(end - start)
        if len(times) >= min_reps and end - began >= seconds:
            break
    return median(times)

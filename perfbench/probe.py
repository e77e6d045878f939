"""Host-speed probe: times are reported at a fixed reference speed.

A shared host slows a single Python thread by up to half for seconds at a
time (other tenants on the same cores, frequency changes).  That noise is far
larger than the changes the benchmark must resolve, and neither repeating
passes nor CPU time removes it: the CPU itself runs slower.  So the worker
runs :func:`probe`, a fixed pure-Python loop of the same kind of work as the
package (tuples, dicts, ``bisect``, bit sets), after every operation, and
scales each operation's wall time by ``REFERENCE_S / p``, where ``p`` is the
median probe time around that operation.  The result is the operation's time
on a host where the probe takes :data:`REFERENCE_S`.  The probe imports
nothing from the package, so no change under ``src/`` can move it; raw wall
times are kept next to the scaled ones.
"""

from __future__ import annotations

import time
from bisect import bisect_right

REFERENCE_S = 1.5e-4  # about the median probe time on the 2-CPU x86 host of the baseline
WINDOW = 5  # probes on each side of an operation that set its scale

_ADJ = ((0, 3, 5, 9, 12), (1, 2, 7, 8, 14), (4, 6, 10, 11, 13))


def probe() -> float:
    """Seconds one fixed walk over a small column index takes right now."""
    start = time.perf_counter()
    acc: dict = {}
    for r in range(20):
        seen = 0
        pos = -1
        col = r % 3
        for _ in range(12):
            lst = _ADJ[col]
            k = bisect_right(lst, pos)
            if k == len(lst):
                pos = -1
                col = (col + 1) % 3
                continue
            i = lst[k]
            seen |= 1 << i
            key = (col, i & 3)
            acc[key] = acc.get(key, 0) + 1
            pos = i
        acc[(r, seen)] = tuple(sorted(acc))[:2]
    return time.perf_counter() - start


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale(probes: list[float]) -> float:
    return REFERENCE_S / _median(probes)


def scales(probes: list[float]) -> list[float]:
    """Scale of each operation: probe ``k`` ran right after operation ``k``."""
    return [scale(probes[max(0, k - WINDOW) : k + WINDOW + 1]) for k in range(len(probes))]

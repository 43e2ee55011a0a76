"""Host-speed calibration.

The shared host this benchmark runs on changes speed by up to 1.8x for tens
of seconds at a time, which no statistic within one run can remove.  A
fixed pure-Python kernel, timed next to the ops, slows down by nearly the
same factor, so the benchmark reports times scaled to a reference host on
which the kernel takes REFERENCE_S.  The kernel does what net rewriting
does most (port-to-owner maps, copies of small records, sorts) and must
never change: a change would rescale every result.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.010


def kernel() -> int:
    cells = [(i, "Tensor" if i % 3 else "Par", 2 * i, [2 * i + 1, 2 * i + 2]) for i in range(3000)]
    owner: dict = {}
    for _ in range(4):
        owner = {}
        for cid, _sym, p, aux in cells:
            owner[p] = (cid, "p")
            for k, a in enumerate(aux):
                owner[a] = (cid, k)
        cells = [(cid, sym, p, list(aux)) for cid, sym, p, aux in cells]
        cells.sort(key=lambda c: (c[1], -c[0]))
    return len(owner)


def measure() -> float:
    """Seconds one kernel run takes now, from the same collector state as
    an op."""
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""Timing in-process work on a shared machine.

On a shared virtual machine a vCPU can run twice as slow as usual while
a neighbour keeps its host core busy.  Which vCPU is slow changes within
a second, and the whole machine drifts by 40% over minutes.  Raw timings
of the same work therefore spread by 20-40% between runs.  Two steps
take that out:

* :class:`CorePicker` times a fixed kernel on each allowed CPU and pins
  the process to the fastest before each unit of timed work.
* Each timing is then scaled by ``REFERENCE_S / kernel time`` on that
  CPU just before it: it reads as it would on a machine where the
  kernel takes :data:`REFERENCE_S`.  The kernel is fixed code outside
  the program, so a change to the program passes through unscaled.

On the development machine this cut the spread of a 15 s sweep's time
from 23% to 2-3% (interquartile range over median).  Raw figures and
kernel times are in every run's detail line.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, List, Sequence

# Kernel time on a quiet core of the development machine (2-vCPU
# x86-64), so that scaled figures read close to raw ones there.
REFERENCE_S = 0.003


def kernel() -> float:
    """Fixed interpreter work -- dict, list and float operations -- and
    the wall seconds it took (about 3-5 ms)."""
    start = time.perf_counter()
    table: dict = {}
    items: list = []
    acc = 0.0
    for i in range(12_000):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        items.append(i * 0.5)
        if len(items) > 64:
            items.clear()
        acc += math.sqrt(i)
    if acc < 0:  # keep the loop's result live
        raise AssertionError
    return time.perf_counter() - start


def summary(kernels: Sequence[float]) -> Dict[str, float]:
    """Kernel-time statistics for the detail line, in ms."""
    ordered = sorted(kernels)
    return {
        "samples": len(ordered),
        "min_ms": 1e3 * ordered[0],
        "median_ms": 1e3 * statistics.median(ordered),
        "max_ms": 1e3 * ordered[-1],
    }


class CorePicker:
    """Pins the calling thread to whichever allowed CPU runs
    :func:`kernel` fastest right now; :meth:`release` undoes it."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.kernels: List[float] = []
        self.picks: List[int] = []

    def pick(self) -> float:
        """Pin to the fastest CPU; returns the scale factor for work
        timed there next (``REFERENCE_S / its kernel time``)."""
        best_s, best_cpu = float("inf"), self.cpus[0]
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            elapsed = kernel()
            if elapsed < best_s:
                best_s, best_cpu = elapsed, cpu
        os.sched_setaffinity(0, {best_cpu})
        self.kernels.append(best_s)
        self.picks.append(best_cpu)
        return REFERENCE_S / best_s

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = summary(self.kernels)
        out["reference_ms"] = 1e3 * REFERENCE_S
        out["cpus"] = {str(c): self.picks.count(c) for c in self.cpus}
        return out

"""
The machine's pace, for steady times on a shared machine.

Other load on a shared host slows every instruction of this process down,
by up to 1.6x, in spells from milliseconds to tens of minutes (CPU time
grows with wall time, so it is not the scheduler). A benchmark that only
reads the clock then measures the neighbours as much as the code.

`probe()` times a fixed pure-Python loop that never touches the library:
table lookups, dict reads and writes, and function calls, as in the
library's kernels. The harness runs one probe before the first op of a
round and one after every op, outside the op's time. The two cores of a
shared machine can run at different paces, so work done in another process
(a CLI request, a set-up interpreter) is probed in that process: CHILD_PROBES
probes just before the work and as many just after it. `scale()` turns a
measured time into *reference seconds*: the time multiplied by
NOMINAL_S / (the median of the probes around it). A slower library reads
slower in reference seconds; a slower machine much less so.

Request processes import this module inside their measured time, so it
imports nothing beyond what the interpreter has loaded at start.
"""

from __future__ import annotations

import gc
import time

PROBE_ITERS = 12_000
# A typical probe time on the two-vCPU machine the benchmark was written on;
# reference seconds are seconds at that pace, so they read close to the clock.
NOMINAL_S = 0.0040
# probes on each side of a measured span that set its pace
WINDOW = 2
CHILD_PROBES = 2

_TABLE = tuple(tuple((i * j + 3) & 31 for j in range(32)) for i in range(32))
_COUNTS = {i: i for i in range(64)}


def _step(row: tuple, k: int) -> int:
    return row[k & 31]


def probe() -> float:
    """Seconds for the fixed loop; the cyclic GC is held off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, counts, acc = _TABLE, _COUNTS, 0
        t0 = time.perf_counter()
        for i in range(PROBE_ITERS):
            acc = _step(table[i & 31], acc + i)
            counts[acc] = counts[acc + 32] + 1
            acc ^= counts[i & 63] & 31
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def around(probes: list[float], i: int) -> float:
    """The pace of span i, which ran between probes[i] and probes[i + 1]."""
    return median(probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW])


def probes() -> list[float]:
    """CHILD_PROBES probes in a row."""
    return [probe() for _ in range(CHILD_PROBES)]


def scale(seconds: float, pace: float) -> float:
    """Measured seconds at the given probe time -> reference seconds."""
    return seconds * NOMINAL_S / pace

"""Reference kernel that turns wall-clock times into reference-speed times.

On a shared small VM the wall time of one fixed piece of Python work varies
by 15-25% from run to run, while its ratio to a fixed pure-Python kernel
timed next to it varies by a few percent.  Every timing the benchmark
reports is therefore calibrated::

    calibrated = wall * NOMINAL_KERNEL_S / kernel_wall

where ``kernel_wall`` is the mean of the kernel runs right before and right
after the timed interval.  The machine's speed changes within a second, so
bracketing a 300 ms op cuts the run-to-run spread of its calibrated time
by a third against the run after it alone.

The kernel is stdlib only and shares no code with funspace: int bit
operations, small tuples, a dict of about 2,300 entries and a sort.  It
runs with the garbage collector disabled, so garbage left by the program is
never collected on the kernel's clock.  The machine switches between a fast
and a slow state about 2x apart, and the kernel has to slow down in the
same proportion as the ops.  Against the same kernel with a 512-entry dict,
the ops' calibrated times read 1-6% slower in the fast state than in the
slow one; with this dict size they stay within 3% (walk, neighbors,
ensemble and states ops, two 100 s runs).
"""

from __future__ import annotations

import gc
import time

#: Kernel wall time the calibrated values are scaled to (2 vCPU VM,
#: Python 3.11; the kernel takes 2.0 ms in the fast state, 4.4 ms in the
#: slow one).  Frozen: changing it rescales every reported time.
NOMINAL_KERNEL_S = 0.0032

_KERNEL_ITERATIONS = 2500
_KERNEL_CHECKSUM = 3598967981


def _kernel() -> int:
    x = 0x9E3779B9
    table: dict[int, tuple[int, int, int]] = {}
    for i in range(_KERNEL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = (x >> 5) & 16383
        pair = (x & 0xFF, (x >> 8).bit_count(), i)
        prev = table.get(key)
        table[key] = pair if prev is None or pair > prev else prev
    acc = 0
    for a, b, c in sorted(table.values()):
        acc = (acc * 31 + (a ^ b) + c) & 0xFFFFFFFF
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = _kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != _KERNEL_CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {acc} != {_KERNEL_CHECKSUM}")
    return elapsed


def calibrate(wall_s: float, kernel_s: float) -> float:
    """Scale a wall time measured next to ``kernel_s`` to reference speed."""
    return wall_s * NOMINAL_KERNEL_S / kernel_s


class Bracket:
    """Kernel runs between consecutive timed intervals.

    ``next()`` runs the kernel once and returns the mean of that run and
    the one before it, which is the previous call's run, or the run made
    on construction.
    """

    def __init__(self) -> None:
        self.before = kernel_seconds()

    def next(self) -> float:
        after = kernel_seconds()
        mean = (self.before + after) / 2
        self.before = after
        return mean

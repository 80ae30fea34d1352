"""Host-speed calibration: timings scaled to a nominal host.

The benchmark runs on a shared host whose speed for pure-Python code
drifts by up to half again, in phases that last from a fraction of a
second to minutes.  A slow phase stretches a fixed Python kernel and
the simulator alike (per point, their slowdowns correlate at about
0.7), so every timed stretch is bracketed by short runs of a fixed
calibration kernel and scaled by::

    REFERENCE_S / mean(kernel time before, kernel time after)

which is the time the stretch would have taken on a host where one
kernel run takes ``REFERENCE_S``.  Kernel runs are never inside a timed
stretch.  On a Table 5 grid repeated for 90 s, scaling each point this
way narrowed the grid's pass times from 2.21-3.41 s raw to 1.73-2.02 s
scaled (30 passes).  Raw times are kept beside the scaled ones in the
report.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Optional, Tuple

#: Kernel time of the nominal host the scaled times refer to (about the
#: fast phase of a 2-vCPU x86-64 cloud VM running CPython 3.11).
REFERENCE_S = 3.0e-3
#: Loop iterations of one kernel run.
KERNEL_ITERATIONS = 30_000
#: A mark calibrates again once this long has passed since the last run.
CALIBRATE_EVERY_S = 0.025
#: Kernel runs per calibration where calibrations are few (process
#: start and end, service job boundaries).
SPARSE_REPEATS = 5

def _kernel_once() -> float:
    table = dict.fromkeys(range(256), 0)
    total = 0
    started = time.perf_counter()
    for i in range(KERNEL_ITERATIONS):
        table[i & 255] = i
        total += table[(i * 7) & 255]
    return time.perf_counter() - started


def kernel_s(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` back-to-back kernel runs.

    The kernel stores and loads dictionary entries with integer
    arithmetic, the mix of the simulator's inner loops, and allocates
    nothing beyond small integers.
    """
    return statistics.median(_kernel_once() for _ in range(repeats))


def scale(before: float, after: float) -> float:
    """The factor that maps raw seconds to nominal-host seconds."""
    return REFERENCE_S / ((before + after) / 2.0)


class SegmentClock:
    """Consecutive timed segments, each scaled by its bracketing kernels.

    The first segment opens at ``opened`` (a ``time.monotonic()``
    reading, which is system-wide, so the parent's spawn time will do;
    default now), and ``kernel_before`` is a kernel time measured just
    before it.  Every :meth:`mark` closes the open segment and opens the
    next, calibrating in between once ``every_s`` has passed since the
    last calibration; :meth:`start` calibrates and reopens the segment;
    :meth:`finish` calibrates after the last mark.  Kernel time never
    falls inside a segment.  Each calibration is the median of
    ``repeats`` kernel runs.  With ``calibrate=False`` (the traced pass)
    no kernel runs and scaled times equal raw ones.
    """

    def __init__(self, calibrate: bool = True, repeats: int = 1,
                 every_s: float = CALIBRATE_EVERY_S, opened: Optional[float] = None,
                 kernel_before: Optional[float] = None) -> None:
        self.calibrate = calibrate
        self.repeats = repeats
        self.every_s = every_s
        #: In order: ``("kernel", seconds)`` or ``("segment", seconds)``.
        self.events: List[Tuple[str, float]] = []
        if calibrate and kernel_before is not None:
            self.events.append(("kernel", kernel_before))
        self.count = 0
        self._last_kernel = -math.inf
        self._opened = time.monotonic() if opened is None else opened

    def _kernel(self) -> None:
        if self.calibrate:
            self.events.append(("kernel", kernel_s(self.repeats)))
            self._last_kernel = time.monotonic()

    def start(self) -> None:
        self._kernel()
        self._opened = time.monotonic()

    def mark(self) -> int:
        """Close the open segment; returns its index among segments."""
        now = time.monotonic()
        self.events.append(("segment", now - self._opened))
        self.count += 1
        if now - self._last_kernel >= self.every_s:
            self._kernel()
        self._opened = time.monotonic()
        return self.count - 1

    def finish(self) -> None:
        if self.events and self.events[-1][0] != "kernel":
            self._kernel()

    def kernels(self) -> List[float]:
        return [seconds for kind, seconds in self.events if kind == "kernel"]

    def segments(self) -> List[Tuple[float, float]]:
        """``(raw, scaled)`` seconds of every segment, in order."""
        out: List[Tuple[float, float]] = []
        before: Optional[float] = None
        pending: List[float] = []  # raw segments waiting for the next kernel
        for kind, seconds in self.events:
            if kind == "segment":
                pending.append(seconds)
                continue
            factor = scale(before if before is not None else seconds, seconds)
            out.extend((raw, raw * factor) for raw in pending)
            pending, before = [], seconds
        out.extend((raw, raw if before is None else raw * scale(before, before))
                   for raw in pending)
        return out

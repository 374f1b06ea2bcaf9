"""Host-speed normalisation of wall-clock measurements.

On a shared host the CPU this process runs on changes speed by up to 1.5x
from one stretch of seconds to the next (a fixed loop measured 8 ms in
some seconds and 12.7 ms in others on the 2-core host). Run-to-run spread
of raw wall-clock metrics is then 15-30%, whatever the run length. Most of
the slowdown is common to all work, so a fixed reference loop
(:meth:`HostSpeed.reference_loop`, ~2 ms of interpreter work and small
numpy writes scattered over a 48 MiB buffer, much as ``Device.write``
scatters into device memory) is timed every :data:`INTERVAL_S` of
measured work. Every host interval is rescaled by the mean of the
reference-loop times at its two ends. The result is what the interval
would take on a host where the reference loop takes exactly
:data:`REFERENCE_S`. The reference runs themselves are excluded from both
raw and normalised time.
"""

from __future__ import annotations

import bisect
import functools
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from perfbench.spans import patch

__all__ = ["HostSpeed", "REFERENCE_S", "INTERVAL_S"]

#: Nominal reference-loop time that normalised seconds are expressed in.
REFERENCE_S = 1e-3
#: Measured work between two reference runs (about 4% overhead).
INTERVAL_S = 0.05
_BUFFER_BYTES = 48 << 20
_WRITES = 1500


class HostSpeed:
    """Reference-loop marks taken between pieces of measured work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (start, end) host time of every reference run, in order.
        self.marks: List[Tuple[float, float]] = []
        # Zero pages stay unmapped until written, so the loop keeps only
        # its ~1,500 touched pages (~6 MiB) resident.
        self._buffer = np.zeros(_BUFFER_BYTES, dtype=np.uint8)
        self._offsets = [
            int(x)
            for x in np.arange(_WRITES, dtype=np.int64) * 2654435761 % (_BUFFER_BYTES - 64)
        ]
        self._row = np.arange(16, dtype=np.uint8)

    def reference_loop(self) -> int:
        """Fixed work: small numpy writes at scattered offsets, dict stores
        and integer arithmetic."""
        buffer, row = self._buffer, self._row
        total = 0
        table = {}
        for i, offset in enumerate(self._offsets):
            buffer[offset : offset + 16] = row
            total += int(buffer[offset + 7]) + i * 3 % 7
            table[i & 1023] = total
        return total

    def tick(self, force: bool = False) -> None:
        """Time the reference loop if ``INTERVAL_S`` has passed since the
        last mark (always when ``force``)."""
        if not force and self.marks and self.clock() - self.marks[-1][1] < INTERVAL_S:
            return
        start = self.clock()
        self.reference_loop()
        self.marks.append((start, self.clock()))

    def ticking(self, targets: Sequence[Tuple[str, str]]):
        """Tick before every call of the ``(module, attribute path)``
        functions for the duration of a ``with`` block (marks inside a
        build)."""
        return patch((module, path, self._ticked) for module, path in targets)

    def _ticked(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return ticked

    def _factor(self, segment: int) -> float:
        """Speed factor of the work between marks ``segment`` and
        ``segment + 1``: nominal over the mean of their loop times."""
        (a0, a1), (b0, b1) = self.marks[segment], self.marks[segment + 1]
        return REFERENCE_S / (((a1 - a0) + (b1 - b0)) / 2.0)

    def interval(self, t0: float, t1: float) -> Tuple[float, float]:
        """(raw, normalised) seconds of measured work within [t0, t1]."""
        raw = norm = 0.0
        for segment in range(len(self.marks) - 1):
            lo = max(t0, self.marks[segment][1])
            hi = min(t1, self.marks[segment + 1][0])
            if hi > lo:
                raw += hi - lo
                norm += (hi - lo) * self._factor(segment)
        return raw, norm

    def factors_at(self, times: Sequence[float]) -> List[float]:
        """Speed factor of the segment containing each host time."""
        starts = [start for start, _ in self.marks]
        last = len(self.marks) - 2
        return [
            self._factor(min(max(bisect.bisect_left(starts, t) - 1, 0), last))
            for t in times
        ]

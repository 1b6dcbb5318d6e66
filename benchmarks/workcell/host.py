"""The host's speed through a run, read from a fixed reference kernel.

On a shared machine the same call runs at full speed or at about 0.6 of it
as other tenants come and go, and whole runs are fast or slow together: the
mean of one fixed call over 20 s windows spread by about 0.18 (quartile
distance over median) on the machine of BASELINE.md.  Library code and this
kernel slow down together, so the benchmark times the kernel every
``INTERVAL_S`` between library calls and reports each timing of a library
call scaled to a host on which the kernel takes ``REF_KERNEL_MS``; the same
windows then spread by 0.01-0.04.  Child processes are scaled by a
reference child instead (below).  The kernel and the reference child are the
benchmark's own code, so a change to the library cannot change them, and the
report line keeps the raw times.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# a typical reading of the kernel on the machine of BASELINE.md
REF_KERNEL_MS = 1.0
# A child process starts and imports at a speed the kernel, timed in this
# process, does not follow: scaled by the kernel, cold CLI times spread more
# between runs than raw ones.  Each child the benchmark times is paired with
# this reference child, timed just before it, and scaled to a host on which
# the reference child takes REF_CHILD_MS: over 20 pairs the cold CLI time
# spread by 0.22 and its ratio to the reference child by 0.08.
REFERENCE_CHILD = ("-c", "import numpy")
REF_CHILD_MS = 190.0
INTERVAL_S = 0.02
# A timing is scaled by the kernel readings from this long before its start
# to this long after its end, or by the MIN_READINGS readings nearest to it
# when fewer fall inside: one reading catches the host at one of its two
# speeds, so a scale rests on many.
WINDOW_S = 0.3
MIN_READINGS = 30

_MATRIX = np.random.default_rng(0).random((64, 3))
# larger than a core's own caches, as the point clouds are
_BUFFER = np.ones(1 << 18)


def kernel() -> int:
    """About a millisecond of interpreter, small-array and cache-sized work,
    the mix the library's hot paths are made of."""
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(30):
        total += int(np.linalg.norm(_MATRIX @ _MATRIX.T, axis=1).argmin())
    for _ in range(2):
        total += int(_BUFFER.sum())
    return total


class HostClock:
    """Kernel readings, (mid time, ms), in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        self._sums = [0.0]
        self._last = -np.inf

    def tick(self) -> None:
        """Time the kernel once, unless it ran less than ``INTERVAL_S`` ago."""
        t0 = perf_counter()
        if t0 - self._last < INTERVAL_S:
            return
        kernel()
        t1 = perf_counter()
        self.record((t0 + t1) / 2.0, (t1 - t0) * 1e3)
        self._last = t1

    def record(self, t: float, ms: float) -> None:
        """Add a reading taken at ``t``, later than every earlier one."""
        self.times.append(t)
        self.ms.append(ms)
        self._sums.append(self._sums[-1] + ms)

    def kernel_ms(self, t0: float, t1: float) -> float:
        """Mean kernel time from ``WINDOW_S`` before ``t0`` to ``WINDOW_S``
        after ``t1``, widened to the nearest ``MIN_READINGS`` readings."""
        if not self.ms:
            return REF_KERNEL_MS
        i = bisect.bisect_left(self.times, t0 - WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + WINDOW_S)
        while j - i < min(MIN_READINGS, len(self.ms)):
            i, j = max(i - 1, 0), min(j + 1, len(self.ms))
        return (self._sums[j] - self._sums[i]) / (j - i)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a time measured over [t0, t1] to the
        reference host."""
        return REF_KERNEL_MS / self.kernel_ms(t0, t1)

"""Machine-speed probe: timings in reference seconds.

The shared virtual machines this benchmark runs on change speed by
themselves, by up to 2x over stretches of a few seconds, with CPU time
equal to wall time. A run's median wall time therefore says as much
about the machine's neighbours as about starflux.

A fixed probe kernel, which uses no starflux code, is timed every
``PROBE_INTERVAL_S`` or so *between* pieces of the measured work (between
batch cases, between march steps). Its time over ``REFERENCE_S`` is the
machine's slowness at that moment. A measured interval is then reported
in reference seconds: each stretch of work between two probes is divided
by the median slowness of the probes around it, and the probes' own time
is left out. On a machine running at reference speed a reference second
is a wall-clock second; a change to starflux moves reference seconds as
it moves wall time, because the probe does not run starflux.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

#: wanted time between two probes
PROBE_INTERVAL_S = 0.05
#: median probe time on the reference machine (2-vCPU VM, Python 3.11)
REFERENCE_S = 1.2e-3
#: a stretch of work is scaled by the median of this many probes around it
WINDOW = 16
#: kernel rounds per probe, and small objects it allocates
ROUNDS = 16
OBJECTS = 1200

_rng = np.random.default_rng(0)
_A = _rng.uniform(size=(8, 8)) + 8.0 * np.eye(8)
_b = _rng.uniform(size=8)
_xs = np.sort(_rng.uniform(size=64))
_n = 200
_T = scipy.sparse.diags(
    [-np.ones(_n - 1), 4.0 * np.ones(_n), -np.ones(_n - 1)], [-1, 0, 1], format="csc"
)
_LU = scipy.sparse.linalg.splu(_T)
_rhs = _rng.uniform(size=_n)


def kernel() -> float:
    """A fixed mix of interpreter work, allocation, small dense and sparse solves.

    Allocation is in the mix because the batch's time follows the
    machine's speed more closely with it than without it.
    """
    acc = 0.0
    for _ in range(ROUNDS):
        acc += float(np.linalg.solve(_A, _b).sum())
        acc += float(np.searchsorted(_xs, 0.5))
        d = {i: (i * 7) % 13 for i in range(30)}
        acc += sum(sorted(d.values()))
    acc += float(_LU.solve(_rhs).sum())
    objects = [[i, i + 1.0, (i,)] for i in range(OBJECTS)]
    acc += len({id(x) for x in objects})
    return acc


class SpeedProbe:
    """Probe times on one clock, and intervals scaled by them."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowness: list[float] = []
        self._next = 0.0
        self._smoothed: list[float] | None = None

    def warm(self, count: int = 20) -> None:
        """Run the kernel untimed, so the first probes see warm caches."""
        for _ in range(count):
            kernel()

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.slowness.append((t1 - t0) / REFERENCE_S)
        self._next = t1 + self.interval
        self._smoothed = None

    def tick(self) -> None:
        """Probe if the interval has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()

    def _gap_slowness(self) -> list[float]:
        """Slowness of each gap between probes (gap j ends at probe j)."""
        if self._smoothed is None:
            s = self.slowness
            if not s:
                raise RuntimeError("no speed probe was taken")
            half = WINDOW // 2
            self._smoothed = [
                statistics.median(s[max(0, j - half) : j + half])
                for j in range(len(s) + 1)
            ]
        return self._smoothed

    def seconds(self, a: float, b: float, scaled: bool = True) -> float:
        """Work time in [a, b], probes left out; in reference seconds if scaled."""
        gaps = self._gap_slowness()
        starts, ends = self.starts, self.ends
        total = 0.0
        j = bisect.bisect_right(ends, a)
        while True:
            lo = max(a, ends[j - 1] if j > 0 else a)
            hi = min(b, starts[j] if j < len(starts) else b)
            if hi > lo:
                total += (hi - lo) / gaps[j] if scaled else hi - lo
            if j >= len(starts) or starts[j] >= b:
                return total
            j += 1

    def median_slowness(self) -> float:
        return statistics.median(self.slowness)

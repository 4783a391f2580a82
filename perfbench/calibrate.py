"""Host-speed probe of the pipeline benchmark.

A shared host does not run at one speed.  On a 2-vCPU x86 VM the same
minproj case ran 1.6-1.8x slower in stretches that last from a second to
several minutes, fresh processes too, with process time tracking wall
time: the CPU itself slows, so neither CPU time nor a longer run removes
it.

The probe times a fixed unit of exact rational arithmetic that lives
here, in the benchmark, and not in minproj, so no change to minproj
alters it.  The unit has the shape of minproj's own hot loops: row
reduction of ``Fraction`` vectors to a canonical span, kept in a set, for
every 3-subset of fixed vectors (as general position enumerates
subspaces), and integer row operations with gcd reduction on 40-120 bit
entries (as the simplex tableau does).  The benchmark times a few units
between cases and one unit every ``TICK_S`` seconds while a case runs
(``Sampler``), and scales the case's latency by ``speed``: REFERENCE_S
over the mean unit time around and during the case.  A slow stretch of
the host lengthens case and unit alike and cancels; a slower minproj
lengthens only the case and shows in full.

On that VM, two sets of 40-second seeded-analyze runs made ten minutes
apart had unscaled median suite times of 8.8 s and 13.3 s, and scaled
ones of 8.19 s and 8.24 s.
"""

from __future__ import annotations

import itertools
import signal
from fractions import Fraction
from math import gcd
from time import perf_counter

# Time of one unit of the fixed work, as measured on a 2-vCPU x86 VM
# (Xeon, 2.1 GHz) under CPython 3.11.  Scaled latencies are seconds on a
# host that runs the unit in this time.  It is a constant, so runs made
# at different times and on different commits compare.
REFERENCE_S = 0.002
# Seconds between samples taken while a case runs, and units probed
# between cases.
TICK_S = 0.1
UNITS_BETWEEN = 4
# Share of the samples dropped at each end before averaging: a sample
# that the host preempted says nothing about its speed.
TRIM = 0.1


def _lcg(state: int, count: int):
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        yield state


def _vectors() -> list[tuple[Fraction, ...]]:
    """Five fixed 5-vectors of small rationals."""
    values = [Fraction(x % 19 - 9, x % 7 + 1) for x in _lcg(12345, 25)]
    return [tuple(values[i:i + 5]) for i in range(0, 25, 5)]


def _rows() -> tuple[list[list[int]], list[list[int]]]:
    """A fixed dense 5 x 10 matrix of ~40-bit rationals, as int pairs."""
    num, den = [], []
    values = list(_lcg(0x9E3779B97F4A7C15, 50))
    for r in range(5):
        rn, rd = [], []
        for x in values[10 * r:10 * r + 10]:
            n, d = (x >> 24) % (1 << 40) - (1 << 39), (x >> 8) % (1 << 20) + 1
            g = gcd(n, d)
            rn.append(n // g)
            rd.append(d // g)
        num.append(rn)
        den.append(rd)
    return num, den


_VECTORS = _vectors()
_NUM, _DEN = _rows()


def _spans() -> int:
    """Number of distinct canonical spans among the 3-subsets."""
    seen = set()
    for subset in itertools.combinations(_VECTORS, 3):
        work = [list(v) for v in subset]
        r = 0
        for c in range(5):
            pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            piv = work[r][c]
            work[r] = [x / piv for x in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
            if r == len(work):
                break
        seen.add(tuple(tuple(row) for row in work[:r]))
    return len(seen)


def _row_ops() -> int:
    """Gauss-Jordan elimination of the fixed int-pair matrix; returns the
    total bit length of its entries."""
    num = [row[:] for row in _NUM]
    den = [row[:] for row in _DEN]
    for p in range(len(num)):
        for r in range(len(num)):
            if r == p or num[r][p] == 0:
                continue
            # row r -= (num[r][p] / den[r][p]) / (num[p][p] / den[p][p]) * row p
            fn, fd = num[r][p] * den[p][p], den[r][p] * num[p][p]
            if fd < 0:
                fn, fd = -fn, -fd
            for c in range(len(num[p])):
                s = num[p][c]
                if s == 0:
                    continue
                a, b, t = num[r][c], den[r][c], den[p][c]
                nn = a * fd * t - fn * s * b
                if nn == 0:
                    num[r][c], den[r][c] = 0, 1
                    continue
                dd = b * fd * t
                g = gcd(nn, dd)
                num[r][c], den[r][c] = nn // g, dd // g
    return sum(x.bit_length() for row in num + den for x in row)


def _work() -> tuple[int, int]:
    return _spans(), _row_ops()


CHECKSUM = _work()


def unit() -> float:
    """Seconds one unit of the fixed work takes."""
    start = perf_counter()
    result = _work()
    seconds = perf_counter() - start
    if result != CHECKSUM:
        raise RuntimeError("host-speed probe computed a different checksum")
    return seconds


def units() -> list[float]:
    """Times of UNITS_BETWEEN units in a row, as taken between cases."""
    return [unit() for _ in range(UNITS_BETWEEN)]


def speed(samples: list[float]) -> float:
    """REFERENCE_S over the trimmed mean of unit times: the factor that
    scales a latency measured while the samples were taken."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return REFERENCE_S / (sum(kept) / len(kept))


class Sampler:
    """Times one unit of the fixed work every TICK_S seconds of wall time
    while armed, from a SIGALRM handler, as the code under measurement
    runs in the same thread.  The handler runs between two bytecodes of
    that code; the time it takes is summed in ``overhead`` so that the
    caller can take it out of a latency.  Samples are uniform in time, so
    a case that spans a slow and a fast stretch of the host is scaled by
    the mix it ran in.  Use as a context manager, which installs the
    handler and restores the previous one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _work()
        self.samples.append(perf_counter() - start)
        self.overhead += perf_counter() - start

    def arm(self) -> None:
        self.samples, self.overhead = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self) -> None:
        """Stops the ticks; ``samples`` and ``overhead`` then hold what
        was taken since arm()."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

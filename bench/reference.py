"""The host-speed reference: a fixed piece of pure-Python work, timed next to
every query so that the benchmark's times do not move with the host.

The benchmark runs on a shared 2-core VM whose speed drifts: for minutes at a
time every instruction runs 1.3-1.9x slower, in CPU time as in wall time, and
no choice of samples inside a 30 s run steps round a spell that long.  So each
time the benchmark reports is a measured time scaled by how fast the host ran
while it was measured:

    reported = measured * NOMINAL_S / reference time at that moment

``kernel`` is the program's hot loop in miniature: small objects with
``__slots__``, reduced integer fractions, tuples and dict updates.  It imports
nothing from ``qgl`` and runs with the garbage collector off, so no state of
the program, however large its heap, changes what it costs; only the host
does.  ``NOMINAL_S`` is about the fastest one call runs on a 2-vCPU 2.1 GHz
Xeon VM, where most calls take 0.4-0.5 ms because the host is shared; a
reported time reads as seconds on that VM at its full speed.  A
program change that makes the interpreter itself slower for all code (a trace
hook left installed, say) would slow the reference too and not show.

    python3 bench/reference.py      # prints the reference time of this host
"""

import gc
import time
from math import gcd

NOMINAL_S = 0.25e-3


class _Q:
    """A reduced fraction of two ints."""

    __slots__ = ("n", "d")

    def __init__(self, n, d=1):
        g = gcd(n, d)
        if d < 0:
            g = -g
        self.n = n // g
        self.d = d // g

    def __add__(self, other):
        return _Q(self.n * other.d + other.n * self.d, self.d * other.d)

    def __mul__(self, other):
        return _Q(self.n * other.n, self.d * other.d)


def kernel():
    """Collect the products of two rational sequences by a tuple key."""
    acc = {}
    for i in range(1, 15):
        a = _Q(i, i + 1)
        for j in range(1, 15):
            key = (i + j, (i * j) % 5)
            t = a * _Q(j + 2, 2 * j + 1)
            prev = acc.get(key)
            acc[key] = t if prev is None else prev + t
    return acc


def reading():
    """Seconds of one kernel call, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    samples = sorted(reading() for _ in range(200))
    print("reference: fastest %.4f ms, median %.4f ms, nominal %.4f ms" % (
        samples[0] * 1e3, samples[len(samples) // 2] * 1e3, NOMINAL_S * 1e3))

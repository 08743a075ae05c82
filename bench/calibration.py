"""Host-speed calibration for a shared, noisy machine.

The host's speed swings by tens of percent within seconds, so every
timing the benchmark reports is scaled to a reference host on which
`kernel()` takes NOMINAL_S: a measured time t becomes t * NOMINAL_S / k,
where k is the mean kernel time sampled in the same process, close in
time to the work it scales.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0015


def kernel() -> float:
    """Time a fixed loop of small-int arithmetic and dict stores.

    It allocates no container objects, so the garbage collector never
    runs inside it and the program's heap cannot slow it down.
    """
    t0 = time.perf_counter()
    table = {}
    a, b, c = 1, 3, 5
    for i in range(4000):
        a, b, c = b, c, (a * 31 + b * 17 + c + i) % 1000003
        table[a * 1000003 + b] = c
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured beside mean kernel time kernel_s
    into reference-host time."""
    return NOMINAL_S / kernel_s

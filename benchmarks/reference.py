"""The host-speed yardstick: a fixed numpy + Python loop with no optbench code.

The host is shared: one thread's speed swings by up to 2x within a second.
Timing this loop next to each measurement lets the benchmark report times
scaled to a host on which the loop takes ``REF_NOMINAL_S``.
"""

import statistics
import time

import numpy as np

REF_NOMINAL_S = 6.5e-4
_X, _L = np.array([0.3, -0.2]), np.array([2.0, 1.0])
_BUF = list(range(4096))


def reference_loop() -> float:
    """Small-vector numpy steps, float formatting and a list walk, like one short method run."""
    x, acc = _X.copy(), 0.0
    rows = []
    for i in range(60):
        g = _L * x + 0.01
        x = x - 0.1 * g
        acc += float(np.dot(g, g)) + i * 0.5
        rows.append(",".join(format(v, ".17g") for v in (acc, x[0], x[1])))
    return acc + sum(_BUF[::7]) + len("\n".join(rows))


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def host_speed() -> float:
    """Median of 9 reference-loop times: the host's current speed."""
    return statistics.median(timed(reference_loop) for _ in range(9))

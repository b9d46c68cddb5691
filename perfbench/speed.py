"""The machine-speed probe.

On a shared VM the same op can take 30% longer for several seconds while
other tenants load the host, and longer again over minutes.  The probe is a
fixed piece of interpreter and numpy work that calls no library code, so it
measures how fast the machine runs right now and nothing a change to the
program can move.  The benchmark runs it right before every op (before every
batch on ``service-mixed``, whose ops overlap) and reports times scaled to the
speed at which the probe takes :data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's time on a quiet 2-core VM (Python 3.11, numpy 2.4).
REFERENCE_PROBE_S = 0.15

#: Seconds spent in probes so far, which a timed wall must leave out.
spent_s = 0.0


def speed_probe() -> float:
    """Seconds the fixed probe work takes now: dict inserts, a sort and a
    loop, four times over, then an elementwise pass and a sort over a
    1.6 MB array, ten times over."""
    global spent_s
    started = time.perf_counter()
    for _ in range(4):
        table = {}
        for i in range(60_000):
            table[(i * 7919) % 10007, i & 63] = i * 0.5
        total = 0.0
        for (a, b), v in sorted(table.items(), key=lambda kv: -kv[1])[:40_000]:
            total += a * b - v
    values = np.arange(200_000, dtype=float)
    for _ in range(10):
        values = np.sqrt(values * 1.0001 + 1.0)
        values.sort()
    elapsed = time.perf_counter() - started
    spent_s += elapsed
    return elapsed


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured right after a probe that took ``probe_s``,
    scaled to the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s

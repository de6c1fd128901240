"""Host-speed probe for the benchmark's calibrated times.

The benchmark shares its host with other work, and the speed at which the
host runs this interpreter drifts by up to 2x for seconds at a time, often
with no steal reported. ``probe`` times a fixed piece of interpreter work,
so a time measured next to it can be scaled to a fixed reference speed:

    calibrated = seconds * REFERENCE_PROBE_S / probe_at_the_time

The work imports nothing from the package, so a change to the package
leaves the probe as it is.
"""

from __future__ import annotations

import time

#: The reference speed is the one at which ``probe`` takes this long.
REFERENCE_PROBE_S = 100e-6
#: Tries per probe; the fastest counts, so an interrupt in one try is lost.
TRIES = 3


def _work() -> int:
    table = {}
    total = 0
    for i in range(300):
        table[i & 63] = total
        total += len(str(i)) + table.get(i >> 1, 0) % 7
    return total


def probe() -> float:
    """Seconds the fixed work takes now, the fastest of ``TRIES``."""
    best = float("inf")
    for _ in range(TRIES):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best

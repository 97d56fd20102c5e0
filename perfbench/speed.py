"""Machine-speed probe, so that figures from a shared host compare.

The benchmark runs on a few cores of a host shared with other tenants,
and the speed a core gives one Python process drifts within seconds: in
2-second windows on a 2-core x86_64 VM the median time of the loop in
:func:`probe_s` ranged from 68 to 116 ms, and two runs of identical
work a minute apart differed in throughput by 40%.  So right before and
after a timed call the benchmark times that fixed, object-heavy loop,
and scales the call's time by ``NOMINAL_S`` over the loop's mean time:
a time so scaled reads as if the machine had run at the speed at which
the loop takes ``NOMINAL_S``.  The unscaled throughputs go into the
``run`` line printed before the result.
"""

from __future__ import annotations

import statistics
import time

#: The probe's median time when the VM above was quiet.
NOMINAL_S = 0.0085
ITERATIONS = 8000


def probe_s() -> float:
    """Seconds a fixed loop of tuple, dict and sort work takes now."""
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(ITERATIONS):
        key = (i % 97, i % 89, str(i % 50))
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts, key=repr):
        del counts[key]
    return time.perf_counter() - start


def scale(*probes: float) -> float:
    """The factor that turns a time into nominal time, from the probes
    taken right before and after it."""
    return NOMINAL_S / statistics.fmean(probes)

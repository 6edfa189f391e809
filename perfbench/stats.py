"""Arithmetic behind the reported numbers, kept apart so it can be tested,
and the reference task that measures how fast the host is running."""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

#: A reported percentile must have at least this many samples above it.
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) that leaves TAIL_SAMPLES samples above it.

    Raises ValueError when there are too few samples for that, rather than
    reporting a tail estimate that rests on a handful of values.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < TAIL_SAMPLES:
        raise ValueError(
            f"{len(ordered)} samples leave {max(len(ordered) - rank, 0)} above the "
            f"{q:.0%} point; at least {TAIL_SAMPLES} are needed"
        )
    return ordered[rank - 1]


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a run that attempted nothing is an error."""
    if attempted < 1:
        raise ValueError("no operations were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def relative_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


#: Nominal duration of reference_task: what it takes on a 2-vCPU Xeon VM at
#: 2.1 GHz under Python 3.11 when the host is quiet. It only fixes the scale.
REFERENCE_S = 0.001


def reference_task() -> float:
    """Seconds taken by a fixed piece of pure-Python work (Fractions and a dict).

    It shares no code with the package, so its duration follows the host's
    speed and nothing else.
    """
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 300):
        total += Fraction(1, i % 13 + 1)
        seen[i] = total
    return time.perf_counter() - start


class HostSpeed:
    """How much slower than nominal the host ran, from reference tasks spread over a run.

    On a shared VM the same work takes up to a third longer for seconds to
    minutes at a time. The run times the reference task after every
    operation and every codec block; a duration measured at time t is
    divided by ``slowdown_at(t)`` (a rate multiplied by it) to report what
    a host at nominal speed would have measured.
    """

    #: Samples a local slowdown is the median of, nearest in time first.
    NEAREST = 9

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> float:
        self.times.append(time.perf_counter())
        self.durations.append(reference_task())
        return self.durations[-1]

    @property
    def slowdown(self) -> float:
        """Mean over the whole run."""
        return statistics.fmean(self.durations) / REFERENCE_S

    def slowdown_at(self, t: float) -> float:
        """Median of the NEAREST samples taken closest to time ``t``."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - self.NEAREST // 2, len(self.times) - self.NEAREST))
        return statistics.median(self.durations[lo:lo + self.NEAREST]) / REFERENCE_S

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, as on a host at nominal speed."""
        return seconds / self.slowdown_at(start)

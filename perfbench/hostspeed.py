"""Operation timing that holds still on a shared host.

On a shared host the speed of the whole machine moves with other
tenants' load: the same fixed loop has been seen to take 25 ms, then
35 to 42 ms for minutes, then 25 ms again, and short bursts come and go
within seconds.  A raw latency taken in such a run measures the
neighbours as much as the program.

So the pool of a workload is timed in passes, and next to the
operations a fixed reference workload, none of it from clflats, is timed
every so often.  Each execution of an operation is scaled by the
reference's nominal time over the reference time measured nearest to
it, which is its latency on a host running at the reference speed; an
operation's figure is the median of its scaled executions.  A set-up,
one long stretch, is scaled by the references timed just before and
just after it.  A change in
clflats moves that figure in full, while a change in the host's speed
moves the operation and its reference alike.

Two references: `reference_work` in-process, for operations inside one
process, and `startup_work`, a fresh interpreter importing numpy, for
operations that are whole CLI processes, whose time goes mostly to
start-up and which a slow host stretches more than in-process work.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

# About the times the references take on a calm 2-vCPU host (Python
# 3.11.7, numpy 2.4.6), so that scaled times read close to wall times
# there.  Constants of the benchmark: change one only with its reference.
REFERENCE_NOMINAL_S = 0.010
STARTUP_NOMINAL_S = 0.15


def reference_work() -> int:
    """Fixed work in the program's own kinds of arithmetic, none of it
    from clflats: small-int loops, big-int products, Fractions, dict
    updates and an object-dtype numpy product."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    big = 3 ** 200
    for i in range(3_000):
        acc += big * i % 1_000_003
    frac = Fraction(0)
    for i in range(1, 1_500):
        frac += Fraction(i, i * 7 % 13 + 1)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    m = np.arange(24 * 24, dtype=object).reshape(24, 24) * big
    return acc + frac.numerator + len(counts) + int(m.dot(m)[0, 0] % 7)


def startup_work() -> None:
    """A fresh interpreter that imports numpy: the start-up a CLI call
    pays before any clflats code runs."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


class Speed:
    """Timings of a reference workload, each with the time it started.

    `work` is timed after an operation once `every_s` has passed since
    the last sample; `nominal_s` is its time at the reference speed.
    """

    def __init__(self, work=reference_work, nominal_s=REFERENCE_NOMINAL_S, every_s=0.25):
        self.work, self.nominal_s, self.every_s = work, nominal_s, every_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        self.work()
        self.last = perf_counter()
        self.starts.append(start)
        self.durations.append(self.last - start)

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= self.every_s:
            self.sample()

    def scale_at(self, when: float) -> float:
        """Nominal over the reference time sampled nearest to `when`."""
        i = bisect.bisect_left(self.starts, when)
        near = min((j for j in (i - 1, i) if 0 <= j < len(self.starts)),
                   key=lambda j: abs(self.starts[j] - when))
        return self.nominal_s / self.durations[near]

    def stretch(self, begin: float, end: float) -> float:
        """The time from `begin` to `end`, one stretch of work that the
        caller sampled the reference just before, scaled by the mean of
        that sample and one taken now, just after it."""
        before = self.durations[-1]
        self.sample()
        return (end - begin) * self.nominal_s * 2 / (before + self.durations[-1])


def timed_passes(ops, run_op, seconds: float, speed: Speed):
    """Run every op once per pass, passes repeating until `seconds` have
    gone by; the first pass always completes, a later one stops where the
    time runs out.  `run_op(op)` does and checks one op and returns its
    latency.  Returns, per op, the median of its executions scaled to the
    reference speed and the median unscaled, then the number of passes
    begun and the wall time."""
    runs: list[list[tuple[float, float]]] = [[] for _ in ops]
    speed.sample()
    begin = perf_counter()
    passes = 0
    while not passes or perf_counter() - begin < seconds:
        passes += 1
        for i, op in enumerate(ops):
            if passes > 1 and perf_counter() - begin >= seconds:
                break
            start = perf_counter()
            runs[i].append((start, run_op(op)))
            speed.maybe_sample()
    elapsed = perf_counter() - begin
    speed.sample()
    scaled = [statistics.median(lat * speed.scale_at(start) for start, lat in r) for r in runs]
    raw = [statistics.median(lat for _, lat in r) for r in runs]
    return scaled, raw, passes, elapsed

"""Small measurement helpers shared by every workload.

Kept free of program imports so the self-tests run without ``src``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from typing import Dict, Optional, Sequence, Tuple

#: A reading of both clocks: (wall seconds, CPU seconds of this process).
Reading = Tuple[float, float]


def now() -> Reading:
    return time.perf_counter(), time.process_time()


def elapsed(start: Reading, end: Reading) -> Reading:
    return end[0] - start[0], end[1] - start[1]


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A reported percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def samples_beyond(percentile: float, count: int) -> int:
    """How many of *count* samples lie strictly above *percentile*.

    The percentile is the value at rank ``ceil(count * p / 100)``; every
    sample ranked after it is "beyond".
    """
    if count <= 0:
        return 0
    rank = math.ceil(count * percentile / 100.0 - 1e-9)
    return count - rank


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with >= 10 samples beyond,
    or None when *count* samples support no tail at all."""
    for percentile in TAIL_PERCENTILES:
        if samples_beyond(percentile, count) >= MIN_BEYOND:
            return percentile
    return None


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(n * p / 100)``)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0 - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest supported tail, in milliseconds."""
    out = {
        "samples": len(samples_s),
        "p50_ms": statistics.median(samples_s) * 1e3,
    }
    tail = tail_percentile(len(samples_s))
    if tail is not None:
        out["tail_pct"] = tail
        out["tail_ms"] = percentile(samples_s, tail) * 1e3
        out["tail_beyond"] = samples_beyond(tail, len(samples_s))
    return out


def failed_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed (0 when none attempted)."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted if attempted else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


#: CPU seconds :func:`reference_cpu_s` takes on the reference machine.
#: Speed-scaled figures are in the reference machine's seconds.
REFERENCE_NOMINAL_S = 0.007

#: Where work is cut at points of its own (``SpeedScale.offer``), the job
#: runs after at least this many CPU seconds of it: often enough to follow
#: the host's swings, at a cost of about 4%.
REFERENCE_EVERY_S = 0.2


def reference_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python job (dicts, JSON, sorting,
    SHA-256: the interpreter work a request or a protocol step does).

    It touches no program code, and runs with the collector off, so
    its time does not depend on the program's heap.  Timed between the
    slices of a timed phase, it tracks the host's effective CPU speed,
    which on a shared VM swings by tens of per cent within seconds.
    """
    enabled = gc.isenabled()
    gc.disable()
    _reference_job(10)  # warm-up: what ran just before is not timed in
    start = time.thread_time()
    _reference_job(100)
    spent = time.thread_time() - start
    if enabled:
        gc.enable()
    return spent


def _reference_job(rounds: int) -> None:
    for i in range(rounds):
        table = {str(j): [j, i * j, {"k": j}] for j in range(20)}
        text = json.dumps(table, sort_keys=True)
        json.loads(text)
        hashlib.sha256(text.encode()).digest()
        sorted(table.items(), key=lambda kv: -kv[1][1])


class SpeedScale:
    """Reference timings between the stretches of a measured stretch of
    work, all in one thread.

    Either call :meth:`mark` once before the first slice and once after
    each, timing the slices yourself; or call :meth:`mark` once, then
    :meth:`offer` at points where a cut is allowed: a span ends there
    (and the job runs) once at least *every* CPU seconds have passed.
    :meth:`factor` ``(i)`` is :data:`REFERENCE_NOMINAL_S` over the mean of
    the two timings around slice or span *i*.  A CPU time times its
    factor reads as on the reference machine, so the host's speed swings
    cancel out of the figures while the program's own cost stays.
    """

    def __init__(self, every: float = 0.0) -> None:
        self.every = every
        self.timings: list = []
        self.spans: list = []
        #: CPU seconds the job itself took, warm-up included.
        self.reference_cpu_s = 0.0
        self._tick = 0.0

    def mark(self) -> None:
        before = time.process_time()
        self.timings.append(reference_cpu_s())
        self._tick = time.process_time()
        self.reference_cpu_s += self._tick - before

    def offer(self, force: bool = False) -> None:
        spent = time.process_time() - self._tick
        if force or spent >= self.every:
            self.spans.append(spent)
            self.mark()

    def factor(self, index: int) -> float:
        around = self.timings[index] + self.timings[index + 1]
        return REFERENCE_NOMINAL_S / (around / 2.0)

    def scaled_cpu_s(self) -> float:
        """The spans' CPU seconds at reference speed."""
        return sum(span * self.factor(i) for i, span in enumerate(self.spans))


def children_cpu_s() -> float:
    """CPU seconds (user + system) of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (or its reaped children), MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0

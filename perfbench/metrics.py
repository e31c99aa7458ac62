"""Pure arithmetic behind the benchmark's numbers (covered by ``selftest.py``).

Nothing here imports the simulator, so the formulas can be checked on tiny
hand-made inputs before any workload runs.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is only reported when at least this many samples lie beyond
#: it; with fewer, a single outlier decides the value.
MIN_SAMPLES_BEYOND = 10


class LatencyHistogram:
    """Nanosecond latencies in log-linear buckets: exact below 256 ns, then
    128 buckets per power of two (under 0.8% relative width).

    Memory stays constant however many samples a run takes, so the sample
    store does not inflate the process's peak RSS as the simulator speeds up.
    """

    SUB = 128

    def __init__(self) -> None:
        self.counts = [0] * (256 + 48 * self.SUB)

    @classmethod
    def index(cls, ns: int) -> int:
        if ns < 256:
            return max(0, ns)
        shift = ns.bit_length() - 8
        return 256 + (shift - 1) * cls.SUB + (ns >> shift) - cls.SUB

    @classmethod
    def value(cls, index: int) -> float:
        """Midpoint of bucket ``index`` in nanoseconds."""
        if index < 256:
            return float(index)
        shift = (index - 256) // cls.SUB + 1
        mantissa = (index - 256) % cls.SUB + cls.SUB
        return (mantissa << shift) + (1 << shift) / 2

    def add(self, ns: int) -> None:
        self.counts[self.index(ns)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile (``0 < q < 1``) in nanoseconds.

        Raises ``ValueError`` unless at least :data:`MIN_SAMPLES_BEYOND`
        samples lie beyond it.
        """
        rank = _rank(q, self.total)
        seen = 0
        for index, hits in enumerate(self.counts):
            seen += hits
            if seen >= rank:
                return self.value(index)
        raise AssertionError("histogram counts disagree with its total")


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples; raises
    ``ValueError`` unless :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile out of range: {q}")
    # Rounded first so float noise (0.99 * 1000 = 990.0000000000001) cannot
    # push the rank up by one.
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}")
    return rank


def fastest_chunks(records: Sequence[tuple[Sequence[int], Sequence[int], Sequence[float]]],
                   chunk: int, stride: int) -> list[tuple[int, Sequence[int], float]]:
    """Each chunk of an iteration's syscalls as the fastest iteration ran it,
    with the fastest speed reading taken at that point of the work.

    ``records`` holds one ``(latencies, stamps, speeds)`` per iteration:
    each syscall's latency in call order; the clock at the start, after
    every ``chunk``-th syscall and at the end; and the reference task's time
    at the start and before every ``stride``-th chunk.  Every iteration
    issues the same syscalls, so chunk ``j`` is the same work in each.  For
    every ``j`` the iteration with the least time for it (the earliest on a
    tie) gives ``(time, latencies)``, paired with the least reference time
    any iteration read before that stretch of ``stride`` chunks.

    A shared host only ever adds time, and its slow spells last seconds to
    minutes: a chunk that at least one iteration ran outside them comes out
    at full speed, and the paired reading tells at what speed the fastest
    iteration of that stretch of work ran.
    """
    if not records:
        raise ValueError("no iterations")
    shapes = {(len(lat), len(stamps), len(speeds)) for lat, stamps, speeds in records}
    if len(shapes) != 1:
        raise ValueError(f"iterations differ in syscalls, chunks or readings: {sorted(shapes)}")
    chunks = len(records[0][1]) - 1
    readings = len(records[0][2])
    if readings != (chunks - 1) // stride + 1:
        raise ValueError(f"{readings} speed readings for {chunks} chunks of stride {stride}")
    chosen = []
    for j in range(chunks):
        duration, k = min((stamps[j + 1] - stamps[j], k)
                          for k, (_lat, stamps, _speeds) in enumerate(records))
        speed = min(speeds[j // stride] for _lat, _stamps, speeds in records)
        chosen.append((duration, records[k][0][j * chunk:(j + 1) * chunk], speed))
    return chosen


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def mean_log_error(pairs: Sequence[tuple[float, float]]) -> float:
    """Mean ``|ln(measured / reference)|`` over ``(measured, reference)``."""
    if not pairs:
        raise ValueError("no pairs")
    total = 0.0
    for measured, reference in pairs:
        if measured <= 0 or reference <= 0:
            raise ValueError(f"log error needs positive values: {measured}, {reference}")
        total += abs(math.log(measured / reference))
    return total / len(pairs)


def direction_agreement(pairs: Sequence[tuple[float, float]]) -> int:
    """How many ``(measured, paper)`` overheads fall on the same side of 1.0.

    An overhead of exactly 1.0 counts as "CntrFS not faster", the rule
    ``ComparisonResult.agrees_with_paper_direction`` uses.
    """
    return sum(1 for measured, paper in pairs
               if (measured >= 1.0) == (paper >= 1.0))


def self_times(parents: Sequence[int], durations: Sequence[int]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root;
    a parent always precedes its children.  Children nest inside their
    parent, so summing the result over a root's subtree gives the root's
    duration exactly.
    """
    own = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[i]
    return own


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0

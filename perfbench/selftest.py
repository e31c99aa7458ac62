"""Self-tests of the benchmark's own arithmetic, on tiny hand-made inputs.

``run.py`` runs these before every measurement and refuses to report when
one fails; ``python3 -m perfbench.selftest`` runs them alone.  They need no
simulator.
"""

from __future__ import annotations

import math
import sys

from perfbench.metrics import (LatencyHistogram, fastest_chunks, direction_agreement,
                               mean_log_error, median, ratio, self_times)


def _expect(condition: bool) -> None:
    # Not ``assert``: the self-tests must also hold under ``python -O``.
    if not condition:
        raise AssertionError("self-test expectation failed")


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def check_percentile() -> None:
    def histogram(samples):
        hist = LatencyHistogram()
        for ns in samples:
            hist.add(ns)
        return hist

    # 1000 samples 0..249 ns (exact buckets), each four times.  The p99 rank
    # is ceil(0.99 * 1000) = 990: exactly ten samples lie beyond it.
    samples = [i // 4 for i in range(1000)]
    hist = histogram(samples)
    _expect(hist.percentile(0.99) == 989 // 4)
    _expect(hist.percentile(0.50) == 499 // 4)
    # One sample fewer leaves only nine beyond p99: refused.
    _expect(_raises(histogram(samples[:-1]).percentile, 0.99))
    _expect(_raises(hist.percentile, 0.999))
    _expect(_raises(hist.percentile, 1.0))
    _expect(histogram(range(20)).percentile(0.5) == 9)
    _expect(_raises(histogram(range(19)).percentile, 0.5))
    # Above 256 ns a bucket is under 1/128 wide and its midpoint lies inside.
    for ns in (256, 1000, 123_457, 10**9, 2**40 - 1):
        mid = LatencyHistogram.value(LatencyHistogram.index(ns))
        _expect(abs(mid - ns) <= ns / 128)
    _expect(median([3, 1, 2]) == 2)
    _expect(median([4, 1, 2, 3]) == 2.5)


def check_fastest_chunks() -> None:
    # Three iterations of five syscalls in chunks of two: chunks [0,2), [2,4)
    # and [4,5), with a speed reading before chunks 0 and 2 (stride 2).
    # Iteration 1 is slow in chunk 0, iteration 2 in chunk 2.
    records = [
        ([1, 2, 3, 4, 5], [0, 10, 20, 30], [1.0, 3.0]),
        ([9, 9, 3, 4, 6], [0, 50, 58, 68], [4.0, 2.0]),
        ([1, 2, 7, 8, 9], [0, 11, 19, 90], [2.0, 5.0]),
    ]
    # Chunk 0 from iteration 0 (10), chunk 1 from iteration 1 (8; iteration
    # 2 ties and is later), chunk 2 from iteration 0 (10); readings pair by
    # stretch, fastest first: 1.0 for chunks 0-1, 2.0 for chunk 2.
    _expect(fastest_chunks(records, 2, 2)
            == [(10, [1, 2], 1.0), (8, [3, 4], 1.0), (10, [5], 2.0)])
    _expect(fastest_chunks(records[1:], 2, 2)
            == [(11, [1, 2], 2.0), (8, [3, 4], 2.0), (10, [6], 2.0)])
    # Iterations that issued different syscalls cannot be compared, and the
    # readings must cover every stretch of chunks.
    _expect(_raises(fastest_chunks, [records[0], ([1, 2], [0, 5, 9], [1.0])], 2, 2))
    _expect(_raises(fastest_chunks, [([1, 2, 3], [0, 5, 9], [])], 2, 2))
    _expect(_raises(fastest_chunks, [], 2, 2))


def check_fidelity_formulas() -> None:
    # |ln(2/1)| and |ln(1/2)| are both ln 2; a perfect point adds 0.
    _expect(math.isclose(mean_log_error([(2.0, 1.0), (0.5, 1.0)]), math.log(2)))
    _expect(math.isclose(mean_log_error([(2.0, 1.0), (3.0, 3.0)]), math.log(2) / 2))
    _expect(_raises(mean_log_error, [(0.0, 1.0)]))
    _expect(_raises(mean_log_error, []))
    # Same side of 1.0 agrees; 1.0 itself counts as "not faster".
    pairs = [(2.0, 1.5), (0.5, 0.2), (1.2, 0.4), (1.0, 1.5), (0.9, 1.9)]
    _expect(direction_agreement(pairs) == 3)
    _expect(ratio(3, 4) == 0.75 and ratio(5, 0) == 0.0)


def check_self_times() -> None:
    # root [0,100) with children a [10,40) and b [50,90); a has child c [20,30).
    parents = [-1, 0, 1, 0]
    durations = [100, 30, 10, 40]
    own = self_times(parents, durations)
    _expect(own == [30, 20, 10, 40])
    _expect(sum(own) == durations[0])
    # Two roots: each subtree sums to its own root.
    parents = [-1, 0, -1, 2, 2]
    durations = [10, 4, 20, 5, 5]
    own = self_times(parents, durations)
    _expect(own == [6, 4, 10, 5, 5])
    _expect(own[0] + own[1] == 10 and own[2] + own[3] + own[4] == 20)


CHECKS = (check_percentile, check_fastest_chunks, check_fidelity_formulas,
          check_self_times)


def run() -> list[str]:
    """Run every self-test; return the names of those that failed."""
    failed = []
    for check in CHECKS:
        try:
            check()
        except AssertionError:
            failed.append(check.__name__)
    return failed


if __name__ == "__main__":
    failures = run()
    for name in failures:
        print(f"self-test failed: {name}", file=sys.stderr)
    print("self-tests ok" if not failures else f"{len(failures)} self-tests failed")
    sys.exit(1 if failures else 0)

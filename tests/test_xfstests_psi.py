"""Each observability xfstests case, individually, on both environments.

The aggregate suite runs inside ``benchmarks/test_bench_xfstests.py`` and
the CI ``xfstests`` job; this module additionally surfaces the observability wave —
the PSI pressure files, the nanosecond-exact stall decompositions, the
``/proc/vmstat`` + per-cgroup ``io.stat`` counters and the tracefs control
surface (generic/204-209) — as one pytest test per (case, environment)
pair, so a regression names the exact case and environment instead of a
pass-rate delta.
"""

from __future__ import annotations

import pytest

from repro.xfstests import harness
from repro.xfstests.generic import GENERIC_TESTS

#: The PSI / tracepoint / counter observability wave.
NEW_CASES = [case for case in GENERIC_TESTS if 204 <= case.number <= 209]


def test_the_new_surface_is_six_cases():
    assert len(NEW_CASES) == 6
    for case in NEW_CASES:
        assert "psi" in case.groups
        assert "auto" in case.groups and "quick" in case.groups


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(xfs_snapshot, case):
    case.func(harness.sandbox(xfs_snapshot.fork(), case))

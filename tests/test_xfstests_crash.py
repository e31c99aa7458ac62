"""Each locks/crash/stress xfstests case, individually, on both environments.

The aggregate suite runs inside ``benchmarks/test_bench_xfstests.py`` and
the CI ``xfstests`` job; this module additionally surfaces the crash-consistency
wave — the POSIX byte-range lock cases (generic/151-165), the power-fail +
journal-replay cases (generic/166-185) and the seeded shadow-model stress
soups (generic/186-203) — as one pytest test per (case, environment) pair,
so a regression names the exact case and environment instead of a
pass-rate delta.
"""

from __future__ import annotations

import pytest

from repro.xfstests import harness
from repro.xfstests.generic import GENERIC_TESTS

#: The advisory-locking, power-fail and stress-soup conformance waves.
NEW_CASES = [case for case in GENERIC_TESTS if 151 <= case.number <= 203]


def test_the_new_surface_is_at_least_fortyfive_cases():
    assert len(NEW_CASES) >= 45
    groups = {group for case in NEW_CASES for group in case.groups}
    # The issue's coverage checklist: byte-range locks, crash durability
    # semantics and the seeded stress soups are all represented.
    assert {"locks", "crash", "stress"} <= groups
    by_group = {g: sum(1 for c in NEW_CASES if g in c.groups)
                for g in ("locks", "crash", "stress")}
    assert by_group["locks"] == 15
    assert by_group["crash"] == 20
    assert by_group["stress"] == 18


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(xfs_snapshot, case):
    case.func(harness.sandbox(xfs_snapshot.fork(), case))

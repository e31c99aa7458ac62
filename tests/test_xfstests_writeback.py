"""Each new writeback/caching xfstests case, individually, on both environments.

The aggregate suite runs inside ``benchmarks/test_bench_xfstests.py`` and
the CI ``xfstests`` job; this module additionally surfaces the memory-pressure
model's conformance cases (generic/091-114), the reclaim/readahead wave
(generic/115-130) and the cgroup memory-controller wave (generic/131-146) as
one pytest test per (case, environment) pair, so a regression names the
exact case and environment instead of a pass-rate delta.
"""

from __future__ import annotations

import pytest

from repro.xfstests import harness
from repro.xfstests.generic import GENERIC_TESTS

#: The writeback/caching cases of the memory-pressure model plus the
#: reclaim/readahead and cgroup memory-controller conformance waves.
NEW_CASES = [case for case in GENERIC_TESTS if 91 <= case.number <= 146]


def test_the_new_surface_is_at_least_fiftytwo_cases():
    assert len(NEW_CASES) >= 52
    groups = {group for case in NEW_CASES for group in case.groups}
    # The issues' coverage checklists: durability, caching, truncate/rename
    # interactions, sparse semantics, memory-pressure reclaim, per-device
    # readahead, sysctl validation and the cgroup memory controller are all
    # represented.
    assert {"writeback", "caching", "rename", "seek", "prealloc",
            "reclaim", "readahead", "sysctl", "cgroup"} <= groups


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(xfs_snapshot, case):
    case.func(harness.sandbox(xfs_snapshot.fork(), case))

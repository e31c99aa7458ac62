"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.kernel.machine import boot_forked
from repro.xfstests import harness


@pytest.fixture()
def machine():
    """A freshly booted simulated host (cloned from a cached boot image)."""
    return boot_forked()


@pytest.fixture()
def syscalls(machine):
    """A syscall facade for a host process forked off init."""
    return machine.spawn_host_process(["/usr/bin/test-process"])


@pytest.fixture(scope="module", params=["native", "cntrfs"])
def xfs_snapshot(request):
    """One pre-booted xfstests environment per module and environment kind;
    each case runs on its own fork, so none sees another's leftover state."""
    factory = {"native": harness.native_environment,
               "cntrfs": harness.cntrfs_environment}[request.param]
    return harness.EnvironmentSnapshot(factory())

"""Snapshot/fork isolation and equivalence properties.

The raw-speed program replaced ~200 fresh boots per run with
``Kernel.snapshot()`` + per-case forks, so the whole test pyramid now rests
on two properties:

* **Isolation** — mutating a fork (files, page caches, sysctl knobs,
  cgroups, the clock, RNG streams) and discarding it leaves the parent
  observationally identical, on the native machine and through a CntrFS
  mount alike;
* **Equivalence** — a forked boot is observationally identical to a fresh
  boot, so harnesses may substitute one for the other freely.

Observations read simulator state directly (clock, meminfo text, page-cache
contents and LRU order, cgroup accounting, writeback pending, inode tables)
rather than through syscalls, which would themselves charge virtual time
and perturb what is being compared.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.fs.constants import OpenFlags
from repro.fs.tmpfs import TmpFS
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.machine import boot, boot_forked
from repro.sim.rng import DeterministicRandom

CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY


def _cgroup_digest(cg) -> list[tuple]:
    out = [(cg.path, cg.mem_cache_bytes, cg.mem_dirty_bytes,
            cg.stats_memory_peak, tuple(sorted(cg.procs)))]
    for name in sorted(cg.children):
        out.extend(_cgroup_digest(cg.children[name]))
    return out


def _fs_digest(fs) -> tuple:
    cache = fs.page_cache
    stats = cache.stats
    inodes = tuple(sorted(
        (ino, inode.mode, inode.nlink, inode.size)
        for ino, inode in fs._inodes.items()))  # noqa: SLF001
    return (inodes,
            tuple(sorted(cache.resident_pages().items())),
            tuple(cache.lru_order()),
            (stats.hits, stats.misses, stats.evictions, stats.writebacks),
            fs.writeback.pending(),
            tuple(sorted(fs.writeback.pending_inodes())))


def _observe(kernel, *filesystems) -> tuple:
    return (kernel.clock.now_ns,
            kernel.vm.meminfo_text(),
            tuple(_cgroup_digest(kernel.cgroups.root)),
            tuple(_fs_digest(fs) for fs in filesystems))


#: One fork-side mutation: (kind, small-int parameters).
_mutations = st.lists(
    st.tuples(st.sampled_from(["write", "mkdir", "unlink", "advance",
                               "knob", "cgroup", "rng", "sync"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=64)),
    min_size=1, max_size=12)


def _apply(sc, clock, rng, base: str, ops) -> None:
    for kind, n, size in ops:
        try:
            if kind == "write":
                fd = sc.open(f"{base}/f{n}", CREAT_WR)
                sc.write(fd, b"m" * (size * 512))
                sc.close(fd)
            elif kind == "mkdir":
                sc.mkdir(f"{base}/d{n}")
            elif kind == "unlink":
                sc.unlink(f"{base}/f{n}")
            elif kind == "advance":
                clock.advance(size * 1_000_000)
            elif kind == "knob":
                fd = sc.open("/proc/sys/vm/dirty_writeback_centisecs",
                             OpenFlags.O_WRONLY)
                sc.write(fd, str(size).encode())
                sc.close(fd)
            elif kind == "cgroup":
                sc.kernel.cgroups.create(f"/forked/{n}")
            elif kind == "rng":
                rng.random()
            elif kind == "sync":
                sc.sync()
        except Exception:
            continue    # EEXIST/ENOENT from colliding ops are fine


class TestSnapshotForkIsolation:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_mutations)
    def test_discarded_fork_leaves_native_parent_untouched(self, ops):
        machine = boot_forked()
        rng = DeterministicRandom("isolation")
        rng.random()                       # a stream position past the seed
        snap = machine.kernel.snapshot(machine, rng)
        before = _observe(machine.kernel, machine.rootfs)
        rng_state = rng.getstate()

        _kernel, (fork, fork_rng) = snap.fork()
        _apply(fork.syscalls, fork.clock, fork_rng, "/root", ops)
        mutated = any(k in ("write", "mkdir", "advance") for k, _, _ in ops)
        if mutated:
            assert _observe(fork.kernel, fork.rootfs) != before
        del fork, fork_rng

        assert _observe(machine.kernel, machine.rootfs) == before
        # The parent stream position (and substream derivation root) is
        # untouched by the fork's own draws.
        assert rng.getstate() == rng_state
        assert rng.substream("probe").initial_seed == \
            DeterministicRandom("isolation").substream("probe").initial_seed

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_mutations)
    def test_discarded_fork_leaves_cntrfs_parent_untouched(self, ops):
        from repro.bench.harness import BenchEnvironment

        env = BenchEnvironment()
        kernel = env.machine.kernel
        snap = kernel.snapshot(env)
        before = _observe(kernel, env.backing, env.client,
                          env.machine.rootfs)

        _kernel, (fork_env,) = snap.fork()
        fork_sc, base = fork_env.cntr_access()
        _apply(fork_sc, fork_env.machine.clock, DeterministicRandom(0),
               base, ops)
        del fork_env

        assert _observe(kernel, env.backing, env.client,
                        env.machine.rootfs) == before


class TestSnapshotForkEquivalence:
    def test_forked_boot_equals_fresh_boot(self):
        fresh = boot()
        forked = boot_forked()
        assert _observe(fresh.kernel, fresh.rootfs) == \
            _observe(forked.kernel, forked.rootfs)

    @pytest.mark.parametrize("boot_fn", [boot, boot_forked])
    def test_mount_in_shared_clone_reaches_host(self, boot_fn):
        """A mount made in a shared copy of the host namespace propagates to
        the host, on a forked boot exactly as on a fresh one."""
        machine = boot_fn()
        cloned = machine.spawn_host_process(["/usr/bin/cloned"])
        cloned.unshare(NamespaceKind.MNT)
        machine.syscalls.makedirs("/srv/from-clone")
        kernel = machine.kernel
        cloned.mount(TmpFS("from-clone", kernel.clock, kernel.costs),
                     "/srv/from-clone")
        assert "/srv/from-clone" in [
            m["mountpoint"] for m in machine.syscalls.mount_table()]

    def test_forks_do_not_propagate_mounts_to_each_other(self):
        a = boot_forked()
        b = boot_forked()
        cloned_in_a = a.spawn_host_process(["/usr/bin/cloned"])
        cloned_in_a.unshare(NamespaceKind.MNT)
        b.syscalls.makedirs("/srv/only-in-b")
        b.syscalls.mount(TmpFS("only-in-b", b.kernel.clock, b.kernel.costs),
                         "/srv/only-in-b")
        assert "/srv/only-in-b" not in [
            m["mountpoint"] for m in cloned_in_a.mount_table()]

    def test_dropped_machine_is_freed(self):
        machine = boot()
        kernel = weakref.ref(machine.kernel)
        del machine
        gc.collect()
        assert kernel() is None

    def test_forks_are_independent_of_each_other(self):
        a = boot_forked()
        b = boot_forked()
        before = _observe(b.kernel, b.rootfs)
        fd = a.syscalls.open("/root/only-in-a", CREAT_WR)
        a.syscalls.write(fd, b"x" * 8192)
        a.syscalls.close(fd)
        assert _observe(b.kernel, b.rootfs) == before
        assert _observe(a.kernel, a.rootfs) != before

    def test_snapshot_is_immune_to_later_parent_mutation(self):
        machine = boot_forked()
        snap = machine.kernel.snapshot(machine)
        before = _observe(machine.kernel, machine.rootfs)
        fd = machine.syscalls.open("/root/parent-side", CREAT_WR)
        machine.syscalls.write(fd, b"p" * 4096)
        machine.syscalls.close(fd)
        _kernel, (clone,) = snap.fork()
        assert _observe(clone.kernel, clone.rootfs) == before

    def test_unpicklable_companion_makes_snapshot_raise(self):
        machine = boot_forked()
        with pytest.raises((pickle.PicklingError, AttributeError)):
            machine.kernel.snapshot(machine, lambda: None)


#: ``save PATH`` boots a machine and pickles it; ``load PATH`` loads it,
#: mounts once in the host namespace and once in an unshared copy, and
#: prints every mount id and the id of every distinct mounted filesystem.
_IMAGE_SCRIPT = """
import json, pickle, sys
from repro.fs.tmpfs import TmpFS
from repro.kernel.machine import boot
from repro.kernel.namespaces import NamespaceKind
mode, path = sys.argv[1:3]
if mode == "save":
    with open(path, "wb") as image:
        pickle.dump(boot(), image, protocol=pickle.HIGHEST_PROTOCOL)
    sys.exit(0)
with open(path, "rb") as image:
    machine = pickle.load(image)
kernel, host = machine.kernel, machine.syscalls
host.makedirs("/srv/late")
host.mount(TmpFS("late", kernel.clock, kernel.costs), "/srv/late")
clone = machine.spawn_host_process(["/usr/bin/clone"])
clone.unshare(NamespaceKind.MNT)
clone.makedirs("/srv/later")
clone.mount(TmpFS("later", kernel.clock, kernel.costs), "/srv/later")
mounts = host.process.mnt_ns.mounts + clone.process.mnt_ns.mounts
filesystems = list({id(m.fs): m.fs for m in mounts}.values())
print(json.dumps({"mount_ids": [m.mount_id for m in mounts],
                  "fs_ids": [fs.fs_id for fs in filesystems]}))
"""


def test_unpickled_image_hands_out_unused_ids(tmp_path):
    """Mount and filesystem ids are numbered per machine and pickled with
    it, so a machine saved by one interpreter and loaded by another never
    hands out an id it already uses."""
    image = str(tmp_path / "machine.pickle")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

    def run(mode: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", _IMAGE_SCRIPT, mode, image],
            capture_output=True, text=True, env=env, check=True,
            timeout=120).stdout

    run("save")
    ids = json.loads(run("load").splitlines()[-1])
    assert len(ids["mount_ids"]) > 2
    assert len(set(ids["mount_ids"])) == len(ids["mount_ids"])
    assert len(set(ids["fs_ids"])) == len(ids["fs_ids"])

"""The cgroup memory controller: charging, reclaim, throttling, cgroupfs.

Four contracts are locked down here (see PERFORMANCE.md "Per-cgroup memory
and write throttling"):

* **attribution** — page-cache and dirty bytes are charged, hierarchically,
  to the cgroup of the process whose syscall created them; uncharging is
  conservative (the root's counters always equal the kernel-wide totals).
* **enforcement** — ``memory.max`` is honoured by per-cgroup LRU reclaim
  (flush-before-drop through the owning engine) and ``memory.high`` by
  deterministic writer stalls; the ``stats_memory_peak`` watermark follows
  the charges.
* **validation** — the cgroupfs rejects malformed limits with EINVAL and
  reclaims synchronously when ``memory.max`` drops below the usage.
* **default equivalence** — with no limit configured anywhere the whole
  system is observationally identical to the PR 4 engine (same page-cache
  state, same flush batches, same virtual time), the memcg analogue of the
  infinite-budget ≡ seed property.
"""

from __future__ import annotations

import errno

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError
from repro.fs.pagecache import PageCache
from repro.fs.writeback import VmSysctl, VmTunables, WritebackEngine
from repro.kernel.cgroups import CgroupHierarchy, CgroupLimits
from repro.kernel.memcg import MemcgController
from repro.sim.clock import VirtualClock

CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY


def _write_file(sc, path, payload):
    fd = sc.open(path, CREAT_WR, 0o644)
    try:
        sc.write(fd, payload)
    finally:
        sc.close(fd)


def _cgroupfs_write(sc, path, payload: bytes):
    fd = sc.open(path, OpenFlags.O_WRONLY)
    try:
        sc.write(fd, payload)
    finally:
        sc.close(fd)


def _cgroupfs_read(sc, path) -> bytes:
    fd = sc.open(path, OpenFlags.O_RDONLY)
    try:
        return sc.read(fd, 1 << 14)
    finally:
        sc.close(fd)


class TestChargeAttribution:
    def test_charges_follow_the_calling_process_cgroup(self, machine, syscalls):
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        _write_file(syscalls, "/root/owned.dat", b"o" * (64 << 10))
        assert cgroup.mem_cache_bytes == 64 << 10
        assert cgroup.mem_dirty_bytes == 64 << 10
        # Hierarchy: the root covers the child's charges.
        root = machine.kernel.cgroups.root
        assert root.mem_cache_bytes >= cgroup.mem_cache_bytes

    def test_root_counters_equal_kernel_totals(self, machine, syscalls):
        kernel = machine.kernel
        _write_file(syscalls, "/root/a.dat", b"a" * (128 << 10))
        machine.kernel.cgroups.attach(syscalls.process.pid, "/other")
        _write_file(syscalls, "/root/b.dat", b"b" * (64 << 10))
        root = kernel.cgroups.root
        assert root.mem_cache_bytes == kernel.vm.cached_bytes_total()
        assert root.mem_dirty_bytes == kernel.vm.dirty_bytes_total()

    def test_uncharge_on_drop_caches(self, machine, syscalls):
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        _write_file(syscalls, "/root/gone.dat", b"g" * (64 << 10))
        assert cgroup.mem_cache_bytes > 0
        machine.kernel.vm.drop_caches(1)
        assert cgroup.mem_cache_bytes == 0
        assert cgroup.mem_dirty_bytes == 0
        assert machine.kernel.cgroups.root.mem_cache_bytes == \
            machine.kernel.vm.cached_bytes_total()

    def test_flush_uncharges_dirty_only(self, machine, syscalls):
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        fd = syscalls.open("/root/f.dat", CREAT_WR, 0o644)
        try:
            syscalls.write(fd, b"f" * (64 << 10))
            assert cgroup.mem_dirty_bytes == 64 << 10
            syscalls.fsync(fd)
            assert cgroup.mem_dirty_bytes == 0
            assert cgroup.mem_cache_bytes == 64 << 10
        finally:
            syscalls.close(fd)

    def test_unmount_releases_the_charges(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        cgroup = kernel.cgroups.attach(syscalls.process.pid, "/box")
        extra = Ext4Fs("memcg-extra", kernel.clock, kernel.costs, kernel.tracer)
        syscalls.makedirs("/mnt/extra")
        syscalls.mount(extra, "/mnt/extra")
        _write_file(syscalls, "/mnt/extra/x.dat", b"x" * (64 << 10))
        assert cgroup.mem_cache_bytes == 64 << 10
        syscalls.umount("/mnt/extra")
        assert cgroup.mem_cache_bytes == 0
        assert kernel.cgroups.root.mem_cache_bytes == \
            kernel.vm.cached_bytes_total()


class TestEnforcement:
    def test_memory_max_bounds_usage(self, machine, syscalls):
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        cgroup.limits.memory_limit_bytes = 128 << 10
        _write_file(syscalls, "/root/big.dat", b"B" * (512 << 10))
        assert cgroup.mem_cache_bytes <= 128 << 10
        stats = cgroup.memcg_stats
        assert stats.pages_reclaimed == stats.pages_dropped + stats.pages_flushed
        assert stats.bytes_reclaimed == stats.pages_reclaimed * 4096
        assert stats.bytes_reclaimed >= 384 << 10

    def test_tightest_limit_wins(self, machine, syscalls):
        hierarchy = machine.kernel.cgroups
        parent = hierarchy.create("/pod")
        parent.limits.memory_limit_bytes = 128 << 10
        child = hierarchy.attach(syscalls.process.pid, "/pod/leaf")
        child.limits.memory_limit_bytes = 1 << 20
        assert child.effective_memory_limit() == 128 << 10
        _write_file(syscalls, "/root/tree.dat", b"T" * (512 << 10))
        assert parent.mem_cache_bytes <= 128 << 10
        assert child.mem_cache_bytes <= 128 << 10
        assert parent.memcg_stats.pages_reclaimed > 0

    def test_sibling_isolation(self, machine, syscalls):
        hierarchy = machine.kernel.cgroups
        quiet = hierarchy.attach(syscalls.process.pid, "/quiet")
        _write_file(syscalls, "/root/quiet.dat", b"q" * (128 << 10))
        quiet_usage = quiet.mem_cache_bytes
        assert quiet_usage == 128 << 10
        greedy = hierarchy.attach(syscalls.process.pid, "/greedy")
        greedy.limits.memory_limit_bytes = 64 << 10
        _write_file(syscalls, "/root/greedy.dat", b"G" * (256 << 10))
        assert greedy.memcg_stats.pages_reclaimed > 0
        assert quiet.mem_cache_bytes == quiet_usage

    def test_memory_peak_watermark_is_driven(self, machine, syscalls):
        """The satellite bugfix: stats_memory_peak was declared but never
        updated — it now tracks the high watermark of memory.current."""
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        assert cgroup.stats_memory_peak == 0
        _write_file(syscalls, "/root/p1.dat", b"1" * (256 << 10))
        assert cgroup.stats_memory_peak == 256 << 10
        machine.kernel.vm.drop_caches(1)
        assert cgroup.mem_cache_bytes == 0
        assert cgroup.stats_memory_peak == 256 << 10
        _write_file(syscalls, "/root/p2.dat", b"2" * (512 << 10))
        assert cgroup.stats_memory_peak >= 512 << 10

    def test_memcg_runs_under_the_global_budget(self, machine, syscalls):
        """Layering: per-cgroup limits first, the kernel-wide MemAvailable
        budget afterwards — both are enforced on the same growth."""
        kernel = machine.kernel
        kernel.vm.drop_caches(3)
        cgroup = kernel.cgroups.attach(syscalls.process.pid, "/box")
        cgroup.limits.memory_limit_bytes = 256 << 10
        mem = kernel.mem
        mem.reserved_bytes = 0
        mem.total_bytes = kernel.vm.cached_bytes_total() \
            + kernel.vm.dirty_bytes_total() + (128 << 10)
        mem.reclaim_enabled = True
        _write_file(syscalls, "/root/both.dat", b"L" * (512 << 10))
        budget = kernel.vm.cache_budget_bytes()
        assert budget is not None
        assert kernel.vm.cached_bytes_total() <= budget
        assert cgroup.mem_cache_bytes <= 256 << 10


class TestThrottle:
    def test_stall_formula_and_determinism(self, machine, syscalls):
        kernel = machine.kernel
        rate = kernel.memcg.throttle_ns_per_byte
        record = 64 << 10

        def run(tag: str) -> tuple[int, int, int]:
            cgroup = kernel.cgroups.attach(syscalls.process.pid, f"/t{tag}")
            cgroup.limits.memory_high_bytes = record
            t0 = kernel.clock.now_ns
            fd = syscalls.open(f"/root/thr-{tag}.dat", CREAT_WR, 0o644)
            try:
                for _ in range(4):
                    syscalls.write(fd, b"s" * record)
            finally:
                syscalls.close(fd)
            return (cgroup.memcg_stats.throttle_stall_ns,
                    cgroup.memcg_stats.throttle_events,
                    kernel.clock.now_ns - t0)

        first = run("a")
        second = run("b")
        # Record 1 lands exactly on the ceiling; records 2-4 each stall.
        assert first[0] == 3 * record * rate
        assert first[1] == 3
        assert first == second

    def test_stall_charges_clock_and_engine_stats(self, machine, syscalls):
        kernel = machine.kernel
        cgroup = kernel.cgroups.attach(syscalls.process.pid, "/box")
        cgroup.limits.memory_high_bytes = 4 << 10
        engine = machine.rootfs.writeback
        stalled_before = engine.stats.throttle_stall_ns
        t0 = kernel.clock.now_ns
        _write_file(syscalls, "/root/over.dat", b"o" * (64 << 10))
        stall = cgroup.memcg_stats.throttle_stall_ns
        assert stall > 0
        assert engine.stats.throttle_stall_ns - stalled_before == stall
        assert kernel.clock.now_ns - t0 >= stall

    def test_stall_is_counted_on_the_breached_ancestor(self, machine, syscalls):
        """When a parent's memory.high is the ceiling that bit, the breach is
        counted on the parent (the enforcing node), not the writing child —
        the same attribution rule reclaim stats follow."""
        hierarchy = machine.kernel.cgroups
        parent = hierarchy.create("/pod")
        parent.limits.memory_high_bytes = 4 << 10
        child = hierarchy.attach(syscalls.process.pid, "/pod/leaf")
        _write_file(syscalls, "/root/deep.dat", b"d" * (64 << 10))
        assert parent.memcg_stats.throttle_stall_ns > 0
        assert child.memcg_stats.throttle_stall_ns == 0

    def test_no_high_no_stall(self, machine, syscalls):
        cgroup = machine.kernel.cgroups.attach(syscalls.process.pid, "/box")
        _write_file(syscalls, "/root/free.dat", b"f" * (256 << 10))
        assert cgroup.memcg_stats.throttle_events == 0
        assert cgroup.memcg_stats.throttle_stall_ns == 0


class TestCgroupfsValidation:
    def test_malformed_limits_are_einval(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/v")
        for knob in ("memory.max", "memory.high"):
            for payload in (b"-1", b"1.5", b"words", b""):
                fd = syscalls.open(f"/sys/fs/cgroup/v/{knob}", OpenFlags.O_WRONLY)
                try:
                    with pytest.raises(FsError) as exc:
                        syscalls.write(fd, payload)
                    assert exc.value.errno == errno.EINVAL
                finally:
                    syscalls.close(fd)
            assert _cgroupfs_read(syscalls, f"/sys/fs/cgroup/v/{knob}") == b"max\n"

    def test_lowering_max_below_usage_reclaims_synchronously(self, machine, syscalls):
        kernel = machine.kernel
        syscalls.mkdir("/sys/fs/cgroup/shrink")
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/shrink/cgroup.procs",
                        f"{syscalls.process.pid}\n".encode())
        _write_file(syscalls, "/root/grown.dat", b"g" * (512 << 10))
        cgroup = kernel.cgroups.lookup("/shrink")
        assert cgroup.mem_cache_bytes == 512 << 10
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/shrink/memory.max", b"131072")
        assert cgroup.mem_cache_bytes <= 131072
        assert cgroup.memcg_stats.pages_reclaimed > 0

    def test_zero_and_max_sentinels_disable_the_limit(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/z")
        cgroup = machine.kernel.cgroups.lookup("/z")
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/z/memory.max", b"65536")
        assert cgroup.limits.memory_limit_bytes == 65536
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/z/memory.max", b"0")
        assert cgroup.limits.memory_limit_bytes is None
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/z/memory.max", b"65536")
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/z/memory.max", b"max")
        assert cgroup.limits.memory_limit_bytes is None

    def test_procs_file_validates_pids(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/p")
        fd = syscalls.open("/sys/fs/cgroup/p/cgroup.procs", OpenFlags.O_WRONLY)
        try:
            with pytest.raises(FsError) as exc:
                syscalls.write(fd, b"424242")
            assert exc.value.errno == errno.ESRCH
            with pytest.raises(FsError) as exc:
                syscalls.write(fd, b"pid-one")
            assert exc.value.errno == errno.EINVAL
        finally:
            syscalls.close(fd)


def _make_image(name: str):
    from repro.container.image import ImageBuilder

    return (ImageBuilder(name, "1.0")
            .add_file("/usr/sbin/app", size=100_000, mode=0o755)
            .entrypoint("/usr/sbin/app")
            .build())


class TestContainerEngineWiring:
    def test_engine_limits_reach_the_cgroup(self, machine):
        from repro.container.docker import DockerEngine

        engine = DockerEngine(machine)
        limits = CgroupLimits(memory_limit_bytes=256 << 10,
                              memory_high_bytes=128 << 10)
        container = engine.run(_make_image("memcg-app"), name="budgeted",
                               limits=limits)
        cgroup = machine.kernel.cgroups.lookup(container.cgroup_path)
        assert cgroup.limits == limits
        assert cgroup.effective_memory_limit() == 256 << 10
        assert container.init_pid in cgroup.procs
        # The cgroup holds a copy: retuning one container through the
        # cgroupfs can never mutate the caller's object or a sibling
        # created from the same limits.
        assert cgroup.limits is not limits
        sibling = engine.run(_make_image("memcg-app2"), name="budgeted-2",
                             limits=limits)
        sibling_cgroup = machine.kernel.cgroups.lookup(sibling.cgroup_path)
        sibling_cgroup.limits.memory_limit_bytes = 1 << 20
        assert cgroup.limits.memory_limit_bytes == 256 << 10
        assert limits.memory_limit_bytes == 256 << 10

    def test_injected_tool_inherits_the_budget(self, machine):
        """The paper's §3.2.3 semantics: a process moved into the container's
        cgroup (what Cntr does to its tools) is bounded by its limits."""
        from repro.container.docker import DockerEngine

        engine = DockerEngine(machine)
        limits = CgroupLimits(memory_limit_bytes=128 << 10)
        container = engine.run(_make_image("victim"), name="bounded",
                               limits=limits)
        tool = machine.spawn_host_process(["/usr/bin/gdb"])
        cgroup = machine.kernel.cgroups.attach(tool.process.pid,
                                               container.cgroup_path)
        _write_file(tool, "/root/tool-output.dat", b"t" * (512 << 10))
        assert cgroup.mem_cache_bytes <= 128 << 10
        assert cgroup.memcg_stats.pages_reclaimed > 0


# ---------------------------------------------------------------------------
# Property: no limits anywhere ⇒ observationally the PR 4 engine
# ---------------------------------------------------------------------------
class _MemcgFs:
    """A filesystem reduced to what the memory controller interacts with: a
    page cache, an engine whose flush cleans the cache, and the
    note-dirty-then-balance write path of ext4/fuse."""

    PAGE = 4096

    def __init__(self, name: str, clock: VirtualClock,
                 background: int = 64 * 4096) -> None:
        self.page_cache = PageCache(page_size=self.PAGE)
        self.writeback = WritebackEngine(
            name, VmTunables(dirty_background_bytes=background),
            self._flush, clock=clock)

    def _flush(self, items, reason):
        for ino, _pending in items:
            self.page_cache.clean(ino)

    def drop_caches(self, mode=3):
        if mode & 1:
            self.writeback.flush()
            self.page_cache.invalidate_all()

    def write(self, ino, offset, size):
        dirtied = self.page_cache.write(ino, offset, size)
        self.writeback.note_dirty(ino, dirtied * self.PAGE)
        self.page_cache.balance_pressure()

    def read(self, ino, offset, size):
        self.page_cache.access(ino, offset, size)


class TestNoLimitEquivalence:
    """The memcg analogue of the infinite-budget ≡ seed property: a fully
    wired controller with no limit configured anywhere must be
    observationally identical to an unwired PR 4 system — same resident
    pages, same LRU order, same stats, same flush batches, same virtual
    time."""

    _rw_ops = st.lists(
        st.tuples(st.sampled_from(["write", "write", "read", "drop"]),
                  st.integers(min_value=1, max_value=4),          # ino
                  st.integers(min_value=0, max_value=64),         # page offset
                  st.integers(min_value=1, max_value=32)),        # pages
        min_size=1, max_size=40)

    @given(_rw_ops, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_no_limits_is_observationally_pr4(self, ops, with_cgroups):
        rigs = {}
        for mode in ("wired", "plain"):
            clock = VirtualClock()
            vm = VmSysctl()
            fs = _MemcgFs(mode, clock)
            if mode == "wired":
                hierarchy = CgroupHierarchy()
                controller = MemcgController(hierarchy, clock)
                vm.memcg = controller
                if with_cgroups:
                    # Cgroups may exist and hold processes — what matters is
                    # that no limit is configured on any of them.
                    hierarchy.attach(7, "/containers/one")
                    controller.set_current(7)
            vm.register_fs(fs)
            rigs[mode] = (fs, clock, vm)
        for kind, ino, page, pages in ops:
            for fs, _clock, _vm in rigs.values():
                if kind == "write":
                    fs.write(ino, page * fs.PAGE, pages * fs.PAGE)
                elif kind == "read":
                    fs.read(ino, page * fs.PAGE, pages * fs.PAGE)
                else:
                    fs.drop_caches(1)
        wired, plain = rigs["wired"], rigs["plain"]
        assert wired[0].page_cache.resident_pages() == \
            plain[0].page_cache.resident_pages()
        assert wired[0].page_cache.lru_order() == plain[0].page_cache.lru_order()
        assert vars(wired[0].page_cache.stats) == vars(plain[0].page_cache.stats)
        assert vars(wired[0].writeback.stats) == vars(plain[0].writeback.stats)
        assert wired[1].now_ns == plain[1].now_ns
        # And the controller's books balance: with everything uncharged or
        # charged, the hierarchy's root equals the kernel-wide totals.
        if wired[2].memcg is not None:
            root = wired[2].memcg.cgroups.root
            assert root.mem_cache_bytes == wired[2].cached_bytes_total()
            assert root.mem_dirty_bytes == wired[2].dirty_bytes_total()
            assert root.memcg_stats.pages_reclaimed == 0
            assert root.memcg_stats.throttle_stall_ns == 0


# ---------------------------------------------------------------------------
# Property: the per-cgroup LRU sublists agree with a scan of the global LRU
# ---------------------------------------------------------------------------
def _oldest_matching(cache, ino_filter):
    """The reclaim victim as found before the sublists existed: the first
    extent from the global LRU head whose inode passes ``ino_filter``."""
    ext = cache._lru_head.nxt
    while ext is not cache._lru_tail:
        if ino_filter(ext.ino):
            return ext
        ext = ext.nxt
    return None


def _under(cgroup, node) -> bool:
    while cgroup is not None:
        if cgroup is node:
            return True
        cgroup = cgroup.parent
    return False


class TestPerCgroupLru:
    """Every owner's sublist is the global LRU restricted to the inodes it
    owns, so the subtree victim read from the sublist heads is the extent
    the old filtered scan of the global list found."""

    PATHS = ("/", "/a", "/a/b", "/a/b/c", "/d")
    _pid = st.integers(min_value=1, max_value=len(PATHS))
    _ino = st.integers(min_value=1, max_value=6)
    # Few distinct offsets and lengths, so ranges often hit an existing
    # extent exactly (the refresh fast path) as well as splitting one.
    _page = st.sampled_from((0, 2, 4, 8, 12))
    _pages = st.sampled_from((1, 2, 4, 8))
    _ops = st.lists(st.one_of(
        st.tuples(st.just("write"), _pid, _ino, _page, _pages),
        st.tuples(st.just("read"), _pid, _ino, _page, _pages),
        st.tuples(st.just("invalidate"), _ino),
        st.tuples(st.just("invalidate_range"), _ino, _page, _pages),
        st.tuples(st.just("reclaim"), _pid, _pages),
        st.tuples(st.just("drop")),
        st.tuples(st.just("rewire")),
    ), min_size=1, max_size=40)
    _prewired = st.lists(st.tuples(st.sampled_from(["write", "read"]),
                                   _ino, _page, _pages), max_size=6)

    @staticmethod
    def _check(fs, controller, cgroups):
        cache = fs.page_cache
        owner = cache._owner
        # The ownership map is the charge map's key set: an inode is owned
        # exactly while memcg holds a charge for it.
        assert set(owner) == set(controller._cache_charged.get(cache, {}))
        order = []
        ext = cache._lru_head.nxt
        while ext is not cache._lru_tail:
            order.append(ext)
            if ext.ino not in owner:
                assert ext.oprev is None and ext.onxt is None
            ext = ext.nxt
        for cgroup, sub in cache._sublists.items():
            assert sub.onxt is not sub          # empty sublists are dropped
            chain = []
            ext = sub.onxt
            while ext is not sub:
                assert ext.onxt.oprev is ext
                chain.append(ext)
                ext = ext.onxt
            keys = [(e.seq, e.start) for e in chain]
            assert keys == sorted(keys)
            assert chain == [e for e in order if owner.get(e.ino) is cgroup]
        assert set(cache._sublists) == set(owner.values())
        for node in cgroups:
            subtree = MemcgController._subtree(node, [fs])
            want = _oldest_matching(
                cache, lambda ino, node=node: _under(owner.get(ino), node))
            assert cache._oldest_owned(subtree) is want
            assert cache.oldest_seq(subtree) == (None if want is None else want.seq)

    @given(_prewired, _ops)
    @settings(max_examples=80, deadline=None)
    # An exact re-access moves the extent to its owner's tail.
    @example([], [("write", 2, 1, 0, 4), ("write", 2, 2, 0, 4),
                  ("write", 2, 1, 0, 4)])
    # A split remainder keeps its origin's place in the sublist.
    @example([], [("write", 2, 1, 0, 8), ("write", 2, 2, 0, 4),
                  ("read", 3, 1, 2, 2)])
    # A pre-wiring extent joins its new owner's sublist ahead of newer ones.
    @example([("write", 1, 0, 4)], [("write", 2, 3, 0, 4),
                                    ("write", 2, 1, 8, 4)])
    def test_sublists_match_a_global_lru_scan(self, prewired, ops):
        clock = VirtualClock()
        vm = VmSysctl()
        fs = _MemcgFs("lru", clock)
        hierarchy = CgroupHierarchy()
        controller = MemcgController(hierarchy, clock)
        vm.memcg = controller
        cgroups = [hierarchy.attach(pid, path)
                   for pid, path in enumerate(self.PATHS, start=1)]
        page = fs.PAGE
        # Pages made resident before the controller is wired in are owned
        # by nobody until their inode's next charge.
        for kind, ino, first, pages in prewired:
            getattr(fs, kind)(ino, first * page, pages * page)
        vm.register_fs(fs)
        self._check(fs, controller, cgroups)
        for op in ops:
            kind = op[0]
            if kind in ("write", "read"):
                _, pid, ino, first, pages = op
                controller.set_current(pid)
                getattr(fs, kind)(ino, first * page, pages * page)
            elif kind == "invalidate":
                fs.page_cache.invalidate(op[1])
            elif kind == "invalidate_range":
                _, ino, first, pages = op
                fs.page_cache.invalidate_range(ino, first, first + pages)
            elif kind == "reclaim":
                _, pid, pages = op
                node = cgroups[pid - 1]
                limit = max(page, node.mem_cache_bytes - pages * page)
                node.limits.memory_limit_bytes = limit
                controller.enforce(node)
                node.limits.memory_limit_bytes = None
                assert node.mem_cache_bytes <= limit or \
                    not MemcgController._subtree(node, [fs])
            elif kind == "drop":
                fs.drop_caches(1)
            else:
                # Unwiring releases every charge with the pages still
                # resident; they are "pre-memcg" pages once re-wired.
                vm.unregister_fs(fs)
                vm.register_fs(fs)
            self._check(fs, controller, cgroups)
        root = cgroups[0]
        assert root.mem_cache_bytes == sum(
            controller._cache_charged.get(fs.page_cache, {}).values())

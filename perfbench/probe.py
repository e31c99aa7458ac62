"""Measurement plumbing: syscall meter, virtual odometer, layer spans, counters.

Everything here wraps the simulator from the outside.  Nothing in ``src/`` is
edited: the benchmark replaces public methods on the layer classes with
timing wrappers for the lifetime of its own process only.

* :class:`SyscallMeter` (always on) times each *top-level* call into the
  ``Syscalls`` facade — the client's view of one simulated syscall.  Nested
  facade calls (``makedirs`` issuing ``mkdir``) ride inside the outer one.
* :class:`Odometer` sums virtual time over measurement *units*.  Each unit
  runs on one kernel, so its clock delta is well defined even though the
  figure harness boots dozens of kernels.
* :class:`SpanRecorder` (``--trace 1`` only) records one span per entry into
  a layer from a different layer: name, parent, host start/end and virtual
  start/end, kept in flat arrays and reduced to self times at the end.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

from perfbench.metrics import self_times

# ---------------------------------------------------------------------------
# Top-level syscall meter
# ---------------------------------------------------------------------------


class SyscallMeter:
    """Host latency of every top-level simulated syscall while active.

    Within one iteration (:meth:`begin` to :meth:`end`) it keeps every
    latency in call order, and the iteration's net clock at its start,
    after every :data:`CHUNK_CALLS`-th call and at its end: the boundaries
    of the chunks :func:`perfbench.metrics.fastest_chunks` compares across
    iterations.  Given a speed sampler, it also reads the machine's speed
    at the start and before every :data:`SPEED_STRIDE`-th chunk, so the
    readings fall at the same points of the work in every iteration.
    """

    #: Syscalls per chunk.
    CHUNK_CALLS = 256
    #: Chunks per speed reading.
    SPEED_STRIDE = 16

    def __init__(self) -> None:
        self.active = False
        self.depth = 0
        self.errors = 0
        self.calls = 0
        self.latencies = array("q")
        self.stamps = array("q")
        self.speeds = array("d")
        self.net_clock = time.perf_counter_ns
        self.sample_speed = None

    def begin(self, net_clock, sample_speed=None) -> None:
        """Start an iteration whose chunk boundaries read ``net_clock()``
        (host nanoseconds less the benchmark's own bookkeeping) and whose
        speed readings, if any, come from ``sample_speed()``."""
        self.net_clock = net_clock
        self.sample_speed = sample_speed
        self.latencies = array("q")
        self.speeds = array("d", [sample_speed()] if sample_speed else [])
        self.stamps = array("q", [net_clock()])

    def end(self) -> tuple[array, array, array]:
        """Close the iteration; return its latencies, chunk boundaries and
        speed readings."""
        self.stamps.append(self.net_clock())
        return self.latencies, self.stamps, self.speeds

    def wrap(self, fn):
        from repro.fs.errors import FsError

        clock = time.perf_counter_ns
        meter = self

        def timed(*args, **kwargs):
            if meter.depth or not meter.active:
                return fn(*args, **kwargs)
            meter.depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except FsError:
                meter.errors += 1
                raise
            finally:
                latencies = meter.latencies
                latencies.append(clock() - t0)
                meter.calls += 1
                meter.depth = 0
                if not len(latencies) % meter.CHUNK_CALLS:
                    chunks = len(latencies) // meter.CHUNK_CALLS
                    if meter.sample_speed is not None and not chunks % meter.SPEED_STRIDE:
                        meter.speeds.append(meter.sample_speed())
                    meter.stamps.append(meter.net_clock())

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        from repro.kernel.syscalls import Syscalls

        for name, fn in public_functions(Syscalls):
            setattr(Syscalls, name, self.wrap(fn))


def public_functions(cls) -> list[tuple[str, object]]:
    """``(name, function)`` for every public plain method ``cls`` resolves.

    Inherited methods are included, so wrapping them on ``cls`` attributes
    the call to ``cls``'s layer and leaves sibling subclasses untouched.
    Properties, static and class methods are skipped.
    """
    found = []
    for name in sorted(dir(cls)):
        if name.startswith("_"):
            continue
        for klass in cls.__mro__:
            if name in klass.__dict__:
                raw = klass.__dict__[name]
                if inspect.isfunction(raw):
                    found.append((name, raw))
                break
    return found


# ---------------------------------------------------------------------------
# Machine speed gauge
# ---------------------------------------------------------------------------

#: Host seconds :func:`reference_seconds` takes at its fastest on the
#: reference machine (the 2-vCPU x86-64 VM the bounds in BENCHMARK.json
#: were set on).
REFERENCE_NOMINAL_S = 0.015


class _Node:
    __slots__ = ("value", "nxt")

    def __init__(self, value) -> None:
        self.value = value
        self.nxt = self

    def get(self):
        return self.value


#: The reference task's data, built on first use so that the timed part
#: allocates nothing: allocator state differs between processes and would
#: otherwise leak into the reading.
_REFERENCE_TABLE: dict[int, _Node] = {}


def reference_seconds() -> float:
    """Host seconds for a fixed pure-Python task shaped like the simulator's
    hot paths: dict probes, attribute reads and writes and method calls over
    a few MiB of slotted objects.  It runs no simulator code, and an untimed
    pass over its data first pulls that data back into the CPU caches, so
    the reading depends little on what the simulator left in them.
    """
    table = _REFERENCE_TABLE
    if not table:
        nodes = [_Node(i) for i in range(1 << 15)]
        for i, node in enumerate(nodes):
            node.nxt = nodes[(i * 7919) & 0x7FFF]
            table[i * 3] = node
    for node in table.values():
        node.nxt.get()
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        node = table[(i * 31 & 0x7FFF) * 3].nxt.nxt
        total += node.get()
        node.value = total & 0xFFFF
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Virtual odometer
# ---------------------------------------------------------------------------


class Odometer:
    """Virtual nanoseconds summed over units, each read off one kernel clock."""

    def __init__(self) -> None:
        self.total_ns = 0
        self.units = 0
        self._clock = None
        self._start = 0

    def now(self) -> int:
        clock = self._clock
        if clock is None:
            return self.total_ns
        return self.total_ns + clock.now_ns - self._start

    def enter(self, clock) -> None:
        if self._clock is not None:
            raise RuntimeError("measurement units may not nest")
        self._clock = clock
        self._start = clock.now_ns

    def leave(self) -> None:
        self.total_ns += self._clock.now_ns - self._start
        self._clock = None
        self.units += 1


# ---------------------------------------------------------------------------
# Model counters
# ---------------------------------------------------------------------------


def _flatten(prefix: str, stats, out: dict[str, int]) -> None:
    for key, value in vars(stats).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            merge_counters(out, {f"{prefix}.{key}": value})
        elif isinstance(value, dict):
            for sub, count in value.items():
                if isinstance(count, int) and not isinstance(count, bool):
                    name = f"{prefix}.{key}.{sub}"
                    out[name] = out.get(name, 0) + count


def collect_counters(kernel) -> dict[str, int]:
    """Every stats counter reachable from ``kernel``'s mounted filesystems,
    its dentry cache, its VM reclaim and its cgroups, summed by kind."""
    out: dict[str, int] = {}
    dcache = kernel.vfs.dcache
    out["dcache.hits"] = dcache.hits
    out["dcache.misses"] = dcache.misses
    _flatten("vm.reclaim", kernel.vm.reclaim_stats, out)
    for fs in kernel.vm.filesystems():
        cache = getattr(fs, "page_cache", None)
        if cache is not None:
            _flatten("pagecache", cache.stats, out)
        engine = getattr(fs, "writeback", None)
        if engine is not None:
            _flatten("writeback", engine.stats, out)
            if engine.bdi is not None:
                _flatten("bdi", engine.bdi.stats, out)
        journal = getattr(fs, "journal", None)
        if journal is not None:
            _flatten("journal", journal.stats, out)
        device = getattr(fs, "device", None)
        if device is not None:
            _flatten("blockdev", device.stats, out)
        connection = getattr(fs, "connection", None)
        if connection is not None:
            _flatten("fuse", connection.stats, out)
            _flatten("fuse.queue", connection.queue_stats, out)
            server = connection.server
            if server is not None:
                _flatten("cntrfs", server.stats, out)
                cntr_stats = getattr(server, "cntr_stats", None)
                if cntr_stats is not None:
                    _flatten("cntrfs", cntr_stats, out)
    pending = [kernel.cgroups.root]
    while pending:
        cgroup = pending.pop()
        _flatten("memcg", cgroup.memcg_stats, out)
        _flatten("cpu", cgroup.cpu_stats, out)
        pending.extend(cgroup.children[name] for name in sorted(cgroup.children))
    return out


#: Counters that are high watermarks, not sums: a unit contributes its
#: final value, and connections and units combine by ``max``.
WATERMARKS = ("fuse.queue.max_depth",)


def merge_counters(into: dict[str, int], values: dict[str, int]) -> None:
    """Add ``values`` into ``into``, taking the maximum of watermarks."""
    for key, value in values.items():
        if key in WATERMARKS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


class Measurement:
    """Units, their virtual time and their counter deltas for one pass."""

    def __init__(self) -> None:
        self.odometer = Odometer()
        self.counters: dict[str, int] = {}
        #: Host time the benchmark spent on its own bookkeeping inside the
        #: timed region (counters, speed readings); subtracted from the wall.
        self.bookkeeping_ns = 0

    def bookkeep(self, fn):
        """``fn()``, its host time counted as bookkeeping."""
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.bookkeeping_ns += time.perf_counter_ns() - t0

    @contextmanager
    def unit(self, kernel):
        """One measurement unit on ``kernel``: virtual time and counter deltas."""
        t0 = time.perf_counter_ns()
        before = collect_counters(kernel)
        self.bookkeeping_ns += time.perf_counter_ns() - t0
        self.odometer.enter(kernel.clock)
        try:
            yield
        finally:
            self.odometer.leave()
            t0 = time.perf_counter_ns()
            after = collect_counters(kernel)
            merge_counters(self.counters, {
                key: value if key in WATERMARKS else value - before.get(key, 0)
                for key, value in after.items()})
            self.bookkeeping_ns += time.perf_counter_ns() - t0


def install_scheduler_counters(current) -> None:
    """Add each ``Scheduler.run``'s counters to ``current()``'s measurement.

    Schedulers are created per experiment and are not reachable from the
    kernel, so their stats are collected where they run.
    """
    from repro.sim.sched import Scheduler

    run = Scheduler.run

    def counted_run(self, *args, **kwargs):
        keys = ("picks", "context_switches", "preemptions", "sleeps",
                "completions", "idle_ns", "wait_ns", "switch_cost_ns")
        before = [getattr(self.stats, key) for key in keys]
        try:
            return run(self, *args, **kwargs)
        finally:
            merge_counters(current().counters, {
                f"sched.{key}": getattr(self.stats, key) - was
                for key, was in zip(keys, before)})

    Scheduler.run = counted_run


# ---------------------------------------------------------------------------
# Layer spans
# ---------------------------------------------------------------------------

#: Root pseudo-layers, then the simulator layers in call-graph order.
LAYERS = ("setup", "workload", "syscalls", "vfs", "pagecache", "fuse_client",
          "fuse", "cntrfs", "ext4", "tmpfs", "writeback", "memcg", "sched",
          "attach", "fork", "snapshot")


def layer_classes() -> list[tuple[str, type, tuple[str, ...] | None]]:
    """``(layer, class, method names or None for every public method)``."""
    from repro.fs.blockdev import BlockDevice
    from repro.fs.ext4 import Ext4Fs
    from repro.fs.journal import Ext4Journal
    from repro.fs.pagecache import PageCache
    from repro.fs.tmpfs import TmpFS
    from repro.fs.vfs import VFS
    from repro.fs.writeback import BacklogDeviceInfo, VmSysctl, WritebackEngine
    from repro.fuse.client import FuseClientFs
    from repro.fuse.device import FuseConnection
    from repro.fuse.server import FuseServer
    from repro.kernel.cpu import CpuController
    from repro.kernel.kernel import Kernel, KernelSnapshot
    from repro.kernel.memcg import MemcgController
    from repro.kernel.syscalls import Syscalls
    from repro.sim.sched import Scheduler

    return [
        ("syscalls", Syscalls, None),
        ("vfs", VFS, None),
        ("pagecache", PageCache, None),
        ("fuse_client", FuseClientFs, None),
        ("fuse", FuseConnection, ("request", "submit_background")),
        ("cntrfs", FuseServer, ("handle",)),
        ("ext4", Ext4Fs, None),
        ("ext4", Ext4Journal, None),
        ("ext4", BlockDevice, None),
        ("tmpfs", TmpFS, None),
        ("writeback", WritebackEngine, None),
        ("writeback", BacklogDeviceInfo, None),
        ("writeback", VmSysctl, None),
        ("memcg", MemcgController, None),
        ("sched", Scheduler, None),
        ("sched", CpuController, None),
        ("fork", KernelSnapshot, ("fork",)),
        ("snapshot", Kernel, ("snapshot",)),
    ]


class SpanRecorder:
    """Spans kept in flat arrays while running; reduced once at the end."""

    def __init__(self, odometer: Odometer) -> None:
        self.odometer = odometer
        self.active = False
        self.layer = array("b")
        self.parent = array("i")
        self.host0 = array("q")
        self.host1 = array("q")
        self.virt0 = array("q")
        self.virt1 = array("q")
        self.failed = array("b")
        self.current = -1
        self.current_layer = -1
        #: Calls to ``VFS.resolve`` (path walks), counted at every nesting.
        self.walks = 0
        #: ``VirtualClock.advance`` calls while recording.
        self.advances = 0

    # -- span lifecycle --------------------------------------------------
    def open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.current)
        self.virt0.append(self.odometer.now())
        self.virt1.append(0)
        self.failed.append(0)
        self.host1.append(0)
        self.host0.append(time.perf_counter_ns())
        self.current = index
        self.current_layer = layer_id
        return index

    def close(self, index: int) -> None:
        self.host1[index] = time.perf_counter_ns()
        self.virt1[index] = self.odometer.now()
        parent = self.parent[index]
        self.current = parent
        self.current_layer = self.layer[parent] if parent >= 0 else -1

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code (roots, attach)."""
        if not self.active:
            yield
            return
        index = self.open(LAYERS.index(layer))
        try:
            yield
        except BaseException:
            self.failed[index] = 1
            raise
        finally:
            self.close(index)

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn, layer_id: int):
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active or recorder.current_layer == layer_id:
                return fn(*args, **kwargs)
            index = recorder.open(layer_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                recorder.failed[index] = 1
                raise
            finally:
                recorder.close(index)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from repro.fs.vfs import VFS
        from repro.sim.clock import VirtualClock

        for layer, cls, names in layer_classes():
            layer_id = LAYERS.index(layer)
            for name, fn in public_functions(cls):
                if names is None or name in names:
                    setattr(cls, name, self.wrap(fn, layer_id))
        resolve = VFS.resolve
        recorder = self

        def counted_resolve(*args, **kwargs):
            recorder.walks += recorder.active
            return resolve(*args, **kwargs)

        VFS.resolve = counted_resolve
        advance = VirtualClock.advance

        def counted_advance(*args, **kwargs):
            recorder.advances += recorder.active
            return advance(*args, **kwargs)

        VirtualClock.advance = counted_advance

    # -- reduction -----------------------------------------------------------
    def subtree(self, root: int) -> range:
        """Indices of span ``root`` and its descendants.

        Spans are stored in the order they open and every span opens inside
        its parent, so a root's subtree is the run of spans up to the next
        span without a parent.
        """
        stop = root + 1
        while stop < len(self.layer) and self.parent[stop] >= 0:
            stop += 1
        return range(root, stop)

    def reduce(self, root: int) -> dict[str, dict[str, int]]:
        """Per-layer span and call counts, errors, and host and virtual self
        and total time over the subtree of span ``root``.

        A layer's *calls* and *totals* count only its outermost spans, so a
        re-entry (vfs -> fuse -> cntrfs -> vfs) is not counted twice.
        """
        span = self.subtree(root)
        base = span.start
        size = len(span)
        host_dur = array("q", (self.host1[i] - self.host0[i] for i in span))
        virt_dur = array("q", (self.virt1[i] - self.virt0[i] for i in span))
        parents = array("i", (self.parent[i] - base if i > base else -1 for i in span))
        host_self = array("q", self_times(parents, host_dur))
        virt_self = array("q", self_times(parents, virt_dur))
        # Bit k of above[j] is set when an ancestor of span j is in layer k.
        above = array("q", bytes(8 * size))
        layers: dict[str, dict[str, int]] = {}
        for j in range(size):
            i = base + j
            layer = self.layer[i]
            parent = parents[j]
            if parent >= 0:
                above[j] = above[parent] | (1 << self.layer[base + parent])
            entry = layers.setdefault(LAYERS[layer], {
                "spans": 0, "calls": 0, "errors": 0, "host_self_ns": 0,
                "virt_self_ns": 0, "host_total_ns": 0, "virt_total_ns": 0})
            entry["spans"] += 1
            entry["errors"] += self.failed[i]
            entry["host_self_ns"] += host_self[j]
            entry["virt_self_ns"] += virt_self[j]
            if not above[j] >> layer & 1:
                entry["calls"] += 1
                entry["host_total_ns"] += host_dur[j]
                entry["virt_total_ns"] += virt_dur[j]
        return layers

    def dump(self, path) -> None:
        """Write the raw span table (one array after another) to ``path``."""
        with open(path, "wb") as fh:
            for column in (self.layer, self.parent, self.host0, self.host1,
                           self.virt0, self.virt1, self.failed):
                column.tofile(fh)

    def __len__(self) -> int:
        return len(self.layer)

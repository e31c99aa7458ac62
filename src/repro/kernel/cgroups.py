"""Control groups: hierarchy, controllers and process membership.

Cntr reads the cgroup membership of the container's init process and moves the
processes it injects into the same cgroup so that the injected tools are
subject to the container's resource limits (design §3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.errors import FsError
from repro.sim.psi import PsiGroup
from repro.sim.sched import CPU_WEIGHT_MAX, CPU_WEIGHT_MIN, CpuGroupStats

#: Controllers modelled by the simulation (a subset of cgroup v1/v2).
CONTROLLERS = ("cpu", "memory", "pids", "blkio", "devices")

#: v1 ``cpu.shares`` value corresponding to the v2 ``cpu.weight`` default 100.
CPU_SHARES_NICE0 = 1024


def cpu_weight_from_shares(shares: int) -> int:
    """Render stored v1-style ``cpu_shares`` as a v2 ``cpu.weight`` (1-10000)."""
    weight = (shares * 100 + CPU_SHARES_NICE0 // 2) // CPU_SHARES_NICE0
    return min(CPU_WEIGHT_MAX, max(CPU_WEIGHT_MIN, weight))


def cpu_shares_from_weight(weight: int) -> int:
    """Store a v2 ``cpu.weight`` write in the v1-style ``cpu_shares`` field.

    The mapping is linear with the fixed point ``weight 100 == shares 1024``
    and integer half-up rounding on both directions: the scale factor is
    10.24 shares per weight unit, so the rounding error survives the inverse
    conversion undistorted and *every* weight in [1, 10000] round-trips
    exactly through a cgroupfs write+read.  The floor of 2 matches the
    kernel's minimum shares value.
    """
    return max(2, (weight * CPU_SHARES_NICE0 + 50) // 100)


@dataclass
class CgroupLimits:
    """Per-cgroup resource limits."""

    cpu_shares: int = 1024
    cpu_quota_us: int | None = None
    cpu_period_us: int = 100_000
    #: ``memory.max``: hard page-cache budget enforced by per-cgroup reclaim
    #: (None or 0 = unlimited, matching the cgroupfs "max" sentinel).
    memory_limit_bytes: int | None = None
    #: ``memory.high``: soft ceiling; charging past it applies
    #: balance_dirty_pages-style write throttling instead of reclaim.
    memory_high_bytes: int | None = None
    pids_max: int | None = None
    blkio_weight: int = 500

    def cpu_weight(self) -> int:
        """The v2 ``cpu.weight`` view of the stored ``cpu_shares``."""
        return cpu_weight_from_shares(self.cpu_shares)

    def cpu_max_text(self) -> str:
        """Render the ``cpu.max`` file content ("$MAX $PERIOD")."""
        quota = "max" if self.cpu_quota_us is None else str(self.cpu_quota_us)
        return f"{quota} {self.cpu_period_us}\n"


@dataclass
class MemcgStats:
    """Memory-controller accounting for one cgroup (``memory.stat``)."""

    reclaims: int = 0              # enforcement passes that reclaimed something
    pages_dropped: int = 0         # clean pages dropped without writeback
    pages_flushed: int = 0         # dirty pages flushed via their engine first
    bytes_reclaimed: int = 0       # total bytes freed by per-cgroup reclaim
    reclaim_cost_ns: int = 0       # virtual time spent inside reclaim passes
    throttle_events: int = 0       # note_dirty calls that stalled the writer
    throttle_stall_ns: int = 0     # virtual time charged as writer stalls

    @property
    def pages_reclaimed(self) -> int:
        """Every reclaimed page was either dropped clean or flushed first."""
        return self.pages_dropped + self.pages_flushed


@dataclass
class CgroupIoStat:
    """Per-device block I/O accounting for one cgroup (one ``io.stat`` row)."""

    rbytes: int = 0    # bytes fetched from the device (page-cache misses)
    wbytes: int = 0    # bytes written back, charged to the dirtying cgroup
    rios: int = 0      # read operations
    wios: int = 0      # write operations (one per flushed inode)


class Cgroup:
    """One node in the cgroup hierarchy."""

    def __init__(self, name: str, parent: "Cgroup | None" = None) -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, "Cgroup"] = {}
        self.procs: set[int] = set()
        self.limits = CgroupLimits()
        #: CPU-controller counters (``cpu.stat``), shared live with the
        #: scheduler's :class:`repro.sim.sched.CpuGroup` by the kernel glue
        #: (:mod:`repro.kernel.cpu`), so cgroupfs reads see charges as they
        #: accrue.
        self.cpu_stats = CpuGroupStats()
        #: High watermark of ``mem_cache_bytes`` (``memory.peak``), driven by
        #: the memory controller's charge path.
        self.stats_memory_peak = 0
        #: Hierarchical charge counters (this cgroup plus every descendant):
        #: resident page-cache bytes (``memory.current``) and unflushed dirty
        #: bytes (``memory.stat`` ``file_dirty``), maintained by
        #: :class:`repro.kernel.memcg.MemcgController`.
        self.mem_cache_bytes = 0
        self.mem_dirty_bytes = 0
        self.memcg_stats = MemcgStats()
        #: Per-cgroup pressure-stall trackers (``cpu.pressure`` /
        #: ``memory.pressure`` / ``io.pressure``), fed by the stall sites
        #: through :class:`repro.sim.psi.PsiRegistry`; hierarchical — every
        #: stall is accounted to the victim cgroup and all its ancestors.
        self.psi = PsiGroup()
        #: Per-device block I/O counters (``io.stat``), hierarchical like the
        #: memory charges; maintained by the memory controller's I/O hooks.
        self.io_stats: dict[str, CgroupIoStat] = {}

    @property
    def path(self) -> str:
        """Absolute path of the cgroup within the hierarchy."""
        if self.parent is None:
            return "/"
        parent_path = self.parent.path
        return f"{parent_path.rstrip('/')}/{self.name}"

    def effective_memory_limit(self) -> int | None:
        """The tightest memory limit along the path to the root."""
        limit = self.limits.memory_limit_bytes
        node = self.parent
        while node is not None:
            parent_limit = node.limits.memory_limit_bytes
            if parent_limit is not None and (limit is None or parent_limit < limit):
                limit = parent_limit
            node = node.parent
        return limit

    def descendant_procs(self) -> set[int]:
        """Pids of this cgroup and every descendant."""
        pids = set(self.procs)
        for child in self.children.values():
            pids |= child.descendant_procs()
        return pids


class CgroupHierarchy:
    """The (unified, v2-style) cgroup tree."""

    def __init__(self) -> None:
        self.root = Cgroup("")
        self._proc_to_cgroup: dict[int, Cgroup] = {}

    def create(self, path: str) -> Cgroup:
        """Create (or return) the cgroup at ``path``."""
        node = self.root
        for part in [p for p in path.split("/") if p]:
            if part not in node.children:
                node.children[part] = Cgroup(part, parent=node)
            node = node.children[part]
        return node

    def lookup(self, path: str) -> Cgroup:
        """Find a cgroup by path."""
        node = self.root
        for part in [p for p in path.split("/") if p]:
            if part not in node.children:
                raise FsError.enoent(path)
            node = node.children[part]
        return node

    def attach(self, pid: int, path: str) -> Cgroup:
        """Move a process into the cgroup at ``path`` (``echo pid > cgroup.procs``)."""
        group = self.create(path)
        previous = self._proc_to_cgroup.get(pid)
        if previous is not None:
            previous.procs.discard(pid)
        group.procs.add(pid)
        self._proc_to_cgroup[pid] = group
        return group

    def detach(self, pid: int) -> None:
        """Remove a process from the hierarchy (on exit)."""
        group = self._proc_to_cgroup.pop(pid, None)
        if group is not None:
            group.procs.discard(pid)

    def cgroup_of(self, pid: int) -> Cgroup:
        """The cgroup a process belongs to (the root if never attached)."""
        return self._proc_to_cgroup.get(pid, self.root)

    def remove(self, path: str) -> None:
        """Remove an empty cgroup."""
        group = self.lookup(path)
        if group.procs or group.children:
            raise FsError.ebusy(path)
        if group.parent is not None:
            del group.parent.children[group.name]

    def proc_cgroup_line(self, pid: int) -> str:
        """The ``/proc/<pid>/cgroup`` content (cgroup v2 single line)."""
        return f"0::{self.cgroup_of(pid).path}"

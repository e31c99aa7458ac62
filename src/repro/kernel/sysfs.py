"""The synthetic ``/sys`` surfaces: ``/sys/class/bdi``, ``/sys/fs/cgroup``
and ``/sys/kernel/debug/tracing``.

Each is a :class:`repro.kernel.synthfs.SyntheticFS`: its tree is generated
from one live kernel object, reads render the current state, and writes to
its writable files retune that object (invalid values are ``EINVAL``, the
sysctl convention).  The namespace belongs to the kernel, so creating,
linking, renaming and removing entries is refused — except that cgroupfs
creates and removes cgroups with ``mkdir``/``rmdir``.

* :class:`BdiSysFS` shows every backing device's writeback state under
  ``/sys/class/bdi/<dev>/``.  The knob that matters for the reproduction is
  ``read_ahead_kb``, the per-device readahead window used on the ext4/FUSE
  read paths; a write retunes the live
  :class:`repro.fs.writeback.BacklogDeviceInfo`, so the next cache-miss
  fetch on that device uses the new window.  Devices appear when their
  filesystem is mounted (``Syscalls.mount`` registers it, and thereby its
  engine's BDI, with :class:`VmSysctl`) and disappear at the last umount,
  as ``/proc`` entries follow processes.
* :class:`CgroupFS` mirrors the live cgroup v2 hierarchy
  (:class:`repro.kernel.cgroups.CgroupHierarchy`).  Its files are the
  controllers' interface: ``memory.max`` / ``memory.high`` (``max``/``0``
  mean unlimited, anything non-integer or negative is ``EINVAL``, and
  lowering ``memory.max`` below the current usage reclaims synchronously,
  per Linux), ``cpu.max`` / ``cpu.weight``, the read-only counters and
  pressure files, and ``cgroup.procs`` (read the member pids, write a pid to
  move a process — the operation Cntr performs on its injected tools).
* :class:`TracingFS` is a small ftrace-shaped control surface over the
  kernel's :class:`repro.sim.trace.Tracer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs.errors import FsError
from repro.kernel.cgroups import cpu_shares_from_weight
from repro.kernel.synthfs import S_IFDIR, S_IFREG, Entry, SyntheticFS
from repro.sim.sched import CPU_WEIGHT_MAX, CPU_WEIGHT_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.writeback import BacklogDeviceInfo
    from repro.kernel.cgroups import Cgroup
    from repro.kernel.kernel import Kernel

#: Files generated inside every ``/sys/class/bdi/<dev>`` directory.
BDI_FILES = ("read_ahead_kb",)
#: The modes of a writable and of a read-only file.
_RW = S_IFREG | 0o644
_RO = S_IFREG | 0o444


class BdiSysFS(SyntheticFS):
    """The ``/sys/class/bdi`` directory, bound to the kernel's BDI registry.

    An entry's owner is its device name (None for the root).
    """

    fs_type = "sysfs"
    modes = {"root": S_IFDIR | 0o755, "bdidir": S_IFDIR | 0o555, "knob": _RW}
    tree = {"bdidir": dict.fromkeys(BDI_FILES, "knob")}

    def __init__(self, name: str, kernel: "Kernel") -> None:
        super().__init__(name, kernel, Entry("root", None, "/"))

    def _bdi(self, device: str) -> "BacklogDeviceInfo":
        bdi = self.kernel.vm.bdis().get(device)
        if bdi is None:
            raise FsError.enoent(f"/sys/class/bdi/{device}")
        return bdi

    def _dynamic_child(self, parent: Entry, name: str) -> Entry | None:
        if parent.kind == "root" and name in self.kernel.vm.bdis():
            return Entry("bdidir", name, name)
        return None

    def _dynamic_children(self, parent: Entry) -> list[Entry]:
        if parent.kind != "root":
            return []
        return [Entry("bdidir", device, device) for device in self.kernel.vm.bdis()]

    def _revalidate(self, entry: Entry) -> None:
        if entry.owner is not None:
            self._bdi(entry.owner)           # ENOENT once the mount is gone

    def _generate(self, entry: Entry) -> bytes:
        # The effective window (knob, or the filesystem's default), rendered
        # in KiB as Linux does.
        return f"{self._bdi(entry.owner).read_ahead_bytes >> 10}\n".encode()

    def _store(self, entry: Entry, text: str) -> None:
        try:
            value = int(text.split()[0]) if text else 0
        except ValueError:
            raise FsError.einval(f"bdi.{entry.name}: {text!r}") from None
        if value < 0:
            raise FsError.einval(f"bdi.{entry.name} = {value}")
        self._bdi(entry.owner).read_ahead_kb = value


# ---------------------------------------------------------------------------
# /sys/fs/cgroup — the writable synthetic cgroupfs
# ---------------------------------------------------------------------------
#: Files generated inside every cgroup directory.
CGROUP_FILES = ("cgroup.procs", "cpu.max", "cpu.pressure", "cpu.stat",
                "cpu.weight", "io.pressure", "io.stat",
                "memory.current", "memory.high", "memory.max",
                "memory.peak", "memory.pressure", "memory.stat")
#: The files a write is allowed to reach (everything else is read-only).
CGROUP_WRITABLE = ("cgroup.procs", "cpu.max", "cpu.weight",
                   "memory.high", "memory.max")
#: ``cpu.max`` bounds, matching the kernel's CFS bandwidth limits (usec).
CPU_QUOTA_MIN_US = 1_000
CPU_PERIOD_MIN_US = 1_000
CPU_PERIOD_MAX_US = 1_000_000


class CgroupFS(SyntheticFS):
    """The ``/sys/fs/cgroup`` mount, bound to the kernel's cgroup hierarchy.

    An entry's owner is the path of its cgroup within the hierarchy ("/" for
    the root).  Directories also appear with ``CgroupHierarchy.create`` calls
    made by container engines, not only through this filesystem's mkdir.
    """

    fs_type = "cgroup2"
    modes = {"dir": S_IFDIR | 0o755, "rw": _RW, "ro": _RO}
    tree = {"dir": {name: "rw" if name in CGROUP_WRITABLE else "ro"
                    for name in CGROUP_FILES}}

    def __init__(self, name: str, kernel: "Kernel") -> None:
        super().__init__(name, kernel, Entry("dir", "/", "/"))

    def _cgroup(self, path: str) -> "Cgroup":
        return self.kernel.cgroups.lookup(path)

    @staticmethod
    def _child_path(parent_path: str, name: str) -> str:
        return f"{parent_path.rstrip('/')}/{name}"

    def _dynamic_child(self, parent: Entry, name: str) -> Entry | None:
        if name in self._cgroup(parent.owner).children:
            return Entry("dir", self._child_path(parent.owner, name), name)
        return None

    def _dynamic_children(self, parent: Entry) -> list[Entry]:
        return [Entry("dir", self._child_path(parent.owner, name), name)
                for name in self._cgroup(parent.owner).children]

    def _revalidate(self, entry: Entry) -> None:
        self._cgroup(entry.owner)             # ENOENT once the cgroup is gone

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int = 0,
              gid: int = 0):
        self._charge_metadata("mkdir")
        parent = self._directory(dir_ino)
        if "/" in name or not name or name in CGROUP_FILES:
            raise FsError.einval(name)
        if name in self._cgroup(parent.owner).children:
            raise FsError.eexist(name)
        child_path = self._child_path(parent.owner, name)
        self.kernel.cgroups.create(child_path)
        return self._synthetic_inode(Entry("dir", child_path, name))

    def rmdir(self, dir_ino: int, name: str) -> None:
        self._charge_metadata("rmdir")
        parent = self._directory(dir_ino)
        if name not in self._cgroup(parent.owner).children:
            raise FsError.enoent(name)
        child_path = self._child_path(parent.owner, name)
        # EBUSY while member processes or children remain, as in Linux.
        self.kernel.cgroups.remove(child_path)
        self._forget(child_path)

    def _generate(self, entry: Entry) -> bytes:
        cgroup = self._cgroup(entry.owner)
        if entry.name == "memory.current":
            return f"{cgroup.mem_cache_bytes}\n".encode()
        if entry.name == "memory.peak":
            return f"{cgroup.stats_memory_peak}\n".encode()
        if entry.name in ("memory.max", "memory.high"):
            limit = cgroup.limits.memory_limit_bytes if entry.name == "memory.max" \
                else cgroup.limits.memory_high_bytes
            if limit is None or limit <= 0:
                return b"max\n"
            return f"{limit}\n".encode()
        if entry.name == "memory.stat":
            return self.kernel.memcg.memory_stat_text(cgroup).encode()
        if entry.name == "cpu.max":
            return cgroup.limits.cpu_max_text().encode()
        if entry.name == "cpu.weight":
            return f"{cgroup.limits.cpu_weight()}\n".encode()
        if entry.name == "cpu.stat":
            stats = cgroup.cpu_stats
            return (f"usage_usec {stats.usage_ns // 1_000}\n"
                    f"nr_periods {stats.nr_periods}\n"
                    f"nr_throttled {stats.nr_throttled}\n"
                    f"throttled_usec {stats.throttled_ns // 1_000}\n").encode()
        if entry.name == "cgroup.procs":
            return "".join(f"{pid}\n" for pid in sorted(cgroup.procs)).encode()
        if entry.name.endswith(".pressure"):
            resource = entry.name.rsplit(".", 1)[0]
            now_ns = self.kernel.clock.now_ns
            return cgroup.psi.render(resource, now_ns).encode()
        if entry.name == "io.stat":
            rows = [f"{dev} rbytes={s.rbytes} wbytes={s.wbytes}"
                    f" rios={s.rios} wios={s.wios}\n"
                    for dev, s in sorted(cgroup.io_stats.items())]
            return "".join(rows).encode()
        raise FsError.enoent(entry.name)

    def _store(self, entry: Entry, text: str) -> None:
        cgroup = self._cgroup(entry.owner)
        if entry.name == "cgroup.procs":
            try:
                pid = int(text)
            except ValueError:
                raise FsError.einval(f"cgroup.procs: {text!r}") from None
            if pid not in self.kernel.processes:
                raise FsError.esrch(f"pid {pid}")
            self.kernel.cgroups.attach(pid, entry.owner)
            return
        if entry.name == "cpu.weight":
            try:
                weight = int(text)
            except ValueError:
                raise FsError.einval(f"cpu.weight: {text!r}") from None
            if not CPU_WEIGHT_MIN <= weight <= CPU_WEIGHT_MAX:
                raise FsError.einval(f"cpu.weight = {weight}")
            cgroup.limits.cpu_shares = cpu_shares_from_weight(weight)
            return
        if entry.name == "cpu.max":
            # "$MAX $PERIOD": quota "max" or usec >= 1000; the period is
            # optional (keeping the current one) and bounded like CFS.
            fields = text.split()
            if not 1 <= len(fields) <= 2:
                raise FsError.einval(f"cpu.max: {text!r}")
            if fields[0] == "max":
                quota = None
            else:
                try:
                    quota = int(fields[0])
                except ValueError:
                    raise FsError.einval(f"cpu.max: {text!r}") from None
                if quota < CPU_QUOTA_MIN_US:
                    raise FsError.einval(f"cpu.max quota = {quota}")
            period = cgroup.limits.cpu_period_us
            if len(fields) == 2:
                try:
                    period = int(fields[1])
                except ValueError:
                    raise FsError.einval(f"cpu.max: {text!r}") from None
                if not CPU_PERIOD_MIN_US <= period <= CPU_PERIOD_MAX_US:
                    raise FsError.einval(f"cpu.max period = {period}")
            cgroup.limits.cpu_quota_us = quota
            cgroup.limits.cpu_period_us = period
            return
        # memory.max / memory.high: "max" (or 0) means unlimited, as on Linux.
        if text == "max":
            value = None
        else:
            try:
                value = int(text)
            except ValueError:
                raise FsError.einval(f"{entry.name}: {text!r}") from None
            if value < 0:
                raise FsError.einval(f"{entry.name} = {value}")
            if value == 0:
                value = None
        if entry.name == "memory.max":
            cgroup.limits.memory_limit_bytes = value
            if value is not None and cgroup.mem_cache_bytes > value:
                # Linux reclaims synchronously when the new limit sits below
                # the current usage instead of rejecting the write.
                self.kernel.memcg.enforce(cgroup)
        else:
            cgroup.limits.memory_high_bytes = value


# ---------------------------------------------------------------------------
# /sys/kernel/debug/tracing — the synthetic ftrace control surface
# ---------------------------------------------------------------------------
#: Files generated inside the tracing directory.
TRACING_FILES = ("available_events", "set_event", "trace", "tracing_on")
#: The files a write is allowed to reach.
TRACING_WRITABLE = ("set_event", "trace", "tracing_on")


class TracingFS(SyntheticFS):
    """The ``/sys/kernel/debug/tracing`` mount, bound to the kernel tracer.

    * ``available_events`` — every declared or observed tracepoint, sorted;
    * ``set_event`` — read the per-tracepoint filter; write ``name`` to
      enable one, ``!name`` to disable it, an empty write to clear all;
    * ``trace`` — the bounded event ring with a header carrying the entry
      and drop counts (``echo > trace`` clears it, as on Linux);
    * ``tracing_on`` — the global collection switch (``0`` / ``1``).
    """

    fs_type = "tracefs"
    modes = {"root": S_IFDIR | 0o755, "rw": _RW, "ro": _RO}
    tree = {"root": {name: "rw" if name in TRACING_WRITABLE else "ro"
                     for name in TRACING_FILES}}

    def __init__(self, name: str, kernel: "Kernel") -> None:
        super().__init__(name, kernel, Entry("root", None, "/"))

    def _generate(self, entry: Entry) -> bytes:
        tracer = self.kernel.tracer
        if entry.name == "available_events":
            return "".join(f"{name}\n"
                           for name in tracer.available_events()).encode()
        if entry.name == "set_event":
            return "".join(f"{name}\n"
                           for name in sorted(tracer.event_filter)).encode()
        if entry.name == "tracing_on":
            return b"1\n" if tracer.enabled else b"0\n"
        if entry.name == "trace":
            events = list(tracer.events())
            lines = [f"# tracer: repro\n"
                     f"# entries: {len(events)} dropped: {tracer.dropped}\n"]
            for key, count in sorted(tracer.dropped_by_key.items()):
                lines.append(f"# dropped {key}: {count}\n")
            for ev in events:
                row = f"{ev.timestamp_ns} {ev.key} cost_ns={ev.cost_ns}"
                if ev.detail:
                    row += f" {ev.detail}"
                lines.append(row + "\n")
            return "".join(lines).encode()
        raise FsError.enoent(entry.name)

    def _store(self, entry: Entry, text: str) -> None:
        tracer = self.kernel.tracer
        if entry.name == "tracing_on":
            if text not in ("0", "1"):
                raise FsError.einval(f"tracing_on: {text!r}")
            tracer.enabled = text == "1"
            return
        if entry.name == "trace":
            # Any write clears the ring, matching `echo > trace`.
            tracer.clear()
            return
        # set_event: one directive per whitespace-separated token.
        tokens = text.split()
        if not tokens:
            tracer.clear_events()
            return
        for token in tokens:
            enable = not token.startswith("!")
            name = token.lstrip("!")
            try:
                tracer.set_event(name, enable=enable)
            except ValueError as exc:
                raise FsError.einval(str(exc)) from None

    def _truncated(self, entry: Entry) -> None:
        # O_TRUNC from the `echo > trace` idiom clears the ring, as on Linux.
        if entry.name == "trace":
            self.kernel.tracer.clear()

"""The synthetic ``/proc`` filesystem.

Cntr's container-context gathering (design step #1) works exclusively by
reading ``/proc``: the namespaces links, environment, capability sets, cgroup
membership, uid/gid maps and mount table of the container's init process.
This module provides a procfs instance bound to a PID namespace, exactly like
Linux, so the same information is available to the reproduction of that step
and so that ``/proc`` can be bind-mounted from the application container into
Cntr's nested namespace (design step #3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs.errors import FsError
from repro.fs.writeback import VmSysctl
from repro.kernel.namespaces import NamespaceKind, PidNamespace
from repro.kernel.synthfs import S_IFDIR, S_IFLNK, S_IFREG, Entry, SyntheticFS
from repro.sim.psi import PSI_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Files generated inside every ``/proc/<pid>`` directory.
PID_FILES = ("status", "environ", "cmdline", "cgroup", "mounts", "mountinfo",
             "limits", "uid_map", "gid_map", "stat", "comm")
#: Symlinks generated inside every ``/proc/<pid>`` directory.
PID_LINKS = ("root", "cwd", "exe")
#: Entries of ``/proc/<pid>/ns``.
NS_LINKS = tuple(kind.value for kind in NamespaceKind)
#: Entries of ``/proc/<pid>/attr``.
ATTR_FILES = ("current", "exec")
#: Top-level non-pid entries.
TOP_FILES = ("mounts", "filesystems", "uptime", "version", "cpuinfo", "meminfo",
             "vmstat")
#: Entries of ``/proc/pressure`` (the PSI files).
PRESSURE_FILES = PSI_RESOURCES
#: Writable ``/proc/sys/vm`` files: the writeback knobs plus drop_caches.
SYS_VM_FILES = VmSysctl.KNOBS + ("drop_caches",)

_DIR = S_IFDIR | 0o555


class ProcFS(SyntheticFS):
    """A procfs instance bound to a PID namespace.

    An entry's owner is the global pid of the process it shows (None above
    the ``/proc/<pid>`` directories).
    """

    fs_type = "proc"
    modes = {"root": S_IFDIR | 0o755, "sysdir": _DIR, "sysvmdir": _DIR,
             "pressuredir": _DIR, "piddir": _DIR, "nsdir": _DIR, "attrdir": _DIR,
             "file": S_IFREG | 0o444, "sysctl": S_IFREG | 0o644,
             "link": S_IFLNK | 0o777}
    tree = {
        "root": {**dict.fromkeys(TOP_FILES, "file"), "sys": "sysdir",
                 "pressure": "pressuredir"},
        "sysdir": {"vm": "sysvmdir"},
        "sysvmdir": dict.fromkeys(SYS_VM_FILES, "sysctl"),
        "pressuredir": dict.fromkeys(PRESSURE_FILES, "file"),
        "piddir": {**dict.fromkeys(PID_FILES, "file"),
                   **dict.fromkeys(PID_LINKS, "link"),
                   "ns": "nsdir", "attr": "attrdir"},
        "nsdir": dict.fromkeys(NS_LINKS, "link"),
        "attrdir": dict.fromkeys(ATTR_FILES, "file"),
    }

    def __init__(self, name: str, kernel: "Kernel", pid_ns: PidNamespace) -> None:
        super().__init__(name, kernel, Entry("root", None, "/"))
        self.pid_ns = pid_ns
        kernel.procfs_instances.append(self)

    # ------------------------------------------------------------- the tree
    def _dynamic_child(self, parent: Entry, name: str) -> Entry | None:
        # /proc/self is absent: the reader's identity is not modelled.
        if parent.kind != "root" or not name.isdigit():
            return None
        # Translate the directory name (a vpid in this namespace) to a global pid.
        vpid = int(name)
        for global_pid, mapped in self.pid_ns.vpid_map.items():
            if mapped == vpid and global_pid in self.kernel.processes:
                return Entry("piddir", global_pid, name)
        return None

    def _dynamic_children(self, parent: Entry) -> list[Entry]:
        if parent.kind != "root":
            return []
        return [Entry("piddir", pid, str(self.pid_ns.vpid_of(pid)))
                for pid in self.pid_ns.member_pids() if pid in self.kernel.processes]

    def readlink(self, ino: int) -> str:
        self._charge_metadata("readlink")
        entry = self.entry_of(ino)
        if entry.kind != "link":
            raise FsError.einval(entry.name)
        return self._link_target(entry)

    def _store(self, entry: Entry, text: str) -> None:
        try:
            value = int(text.split()[0]) if text else 0
        except ValueError:
            raise FsError.einval(f"vm.{entry.name}: {text!r}") from None
        if entry.name == "drop_caches":
            self.kernel.vm.drop_caches(value)
        else:
            self.kernel.vm.set(entry.name, value)

    # ------------------------------------------------------------- content
    def _proc(self, pid: int):
        proc = self.kernel.processes.get(pid)
        if proc is None:
            raise FsError.esrch(f"pid {pid}")
        return proc

    def _link_target(self, entry: Entry) -> str:
        proc = self._proc(entry.owner)
        if entry.name == "root":
            return "/"
        if entry.name == "cwd":
            return proc.cwd_path
        if entry.name == "exe":
            return proc.argv[0] if proc.argv else ""
        return proc.namespaces[NamespaceKind(entry.name)].proc_link()

    def _generate(self, entry: Entry) -> bytes:
        if entry.kind == "sysctl":
            if entry.name == "drop_caches":
                return f"{self.kernel.vm.drop_caches_last}\n".encode()
            return f"{self.kernel.vm.get(entry.name)}\n".encode()
        if entry.owner is None:
            return self._generate_top(entry.name)
        proc = self._proc(entry.owner)
        name = entry.name
        if name == "environ":
            return b"\x00".join(f"{k}={v}".encode() for k, v in proc.env.items()) + b"\x00"
        if name == "cmdline":
            return b"\x00".join(a.encode() for a in proc.argv) + b"\x00"
        if name == "comm":
            return (proc.comm + "\n").encode()
        if name == "cgroup":
            return (self.kernel.cgroups.proc_cgroup_line(proc.pid) + "\n").encode()
        if name in ("mounts", "mountinfo"):
            rows = proc.mnt_ns.mount_table()
            lines = [f"{r['source']} {r['mountpoint']} {r['fs_type']} {r['options']} 0 0"
                     for r in rows]
            return ("\n".join(lines) + "\n").encode()
        if name == "status":
            caps = proc.caps.to_proc_status()
            lines = [
                f"Name:\t{proc.comm}",
                "State:\tS (sleeping)" if proc.state == "running" else "State:\tZ (zombie)",
                f"Pid:\t{proc.vpid()}",
                f"PPid:\t{proc.ppid}",
                f"Uid:\t{proc.uid}\t{proc.uid}\t{proc.uid}\t{proc.uid}",
                f"Gid:\t{proc.gid}\t{proc.gid}\t{proc.gid}\t{proc.gid}",
                f"Groups:\t{' '.join(str(g) for g in sorted(proc.groups))}",
                f"NStgid:\t{proc.vpid()}",
            ] + [f"{k}:\t{v}" for k, v in caps.items()] + [
                "Seccomp:\t0",
            ]
            return ("\n".join(lines) + "\n").encode()
        if name == "limits":
            fsize = proc.rlimits.fsize_bytes
            fsize_text = "unlimited" if fsize is None else str(fsize)
            lines = [
                "Limit                     Soft Limit           Hard Limit           Units",
                f"Max file size             {fsize_text:<20} {fsize_text:<20} bytes",
                f"Max open files            {proc.rlimits.nofile:<20} {proc.rlimits.nofile:<20} files",
            ]
            return ("\n".join(lines) + "\n").encode()
        if name == "uid_map":
            user_ns = proc.namespaces[NamespaceKind.USER]
            rows = getattr(user_ns, "uid_map", [(0, 0, 4294967295)])
            return ("".join(f"{a:>10} {b:>10} {c:>10}\n" for a, b, c in rows)).encode()
        if name == "gid_map":
            user_ns = proc.namespaces[NamespaceKind.USER]
            rows = getattr(user_ns, "gid_map", [(0, 0, 4294967295)])
            return ("".join(f"{a:>10} {b:>10} {c:>10}\n" for a, b, c in rows)).encode()
        if name == "stat":
            return (f"{proc.vpid()} ({proc.comm}) S {proc.ppid} 0 0 0 -1 0 0\n").encode()
        if name == "current":
            return (proc.lsm_profile.proc_attr_current + "\n").encode()
        if name == "exec":
            return b"\n"
        raise FsError.enoent(name)

    def _generate_top(self, name: str) -> bytes:
        if name == "filesystems":
            return b"nodev\tproc\nnodev\ttmpfs\nnodev\tfuse\n\text4\n"
        if name == "uptime":
            seconds = self.clock.now_s
            return f"{seconds:.2f} {seconds:.2f}\n".encode()
        if name == "version":
            return b"Linux version 4.14.13-repro (simulated) #1 SMP\n"
        if name == "cpuinfo":
            block = "\n".join(
                f"processor\t: {i}\nmodel name\t: Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz"
                for i in range(4))
            return (block + "\n").encode()
        if name == "meminfo":
            # Rendered by VmSysctl from the same MemInfo the ratio knobs
            # resolve against, so the two surfaces can never disagree.
            return self.kernel.vm.meminfo_text().encode()
        if name == "vmstat":
            return self.kernel.vm.vmstat_text().encode()
        if name in PRESSURE_FILES:
            now_ns = self.kernel.clock.now_ns
            return self.kernel.psi.system.render(name, now_ns).encode()
        if name == "mounts":
            return b"rootfs / rootfs rw 0 0\n"
        raise FsError.enoent(name)

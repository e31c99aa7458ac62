"""The seven Linux namespace kinds and their per-kind state."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.fs.mount import MountNamespace

_ns_id_counter = itertools.count(0x4000_0000)


class NamespaceKind(enum.Enum):
    """Namespace kinds, named as in ``/proc/<pid>/ns``."""

    MNT = "mnt"
    PID = "pid"
    NET = "net"
    UTS = "uts"
    IPC = "ipc"
    USER = "user"
    CGROUP = "cgroup"


@dataclass
class Namespace:
    """Base namespace object: a kind plus an inode-like identity."""

    kind: NamespaceKind
    ns_id: int = field(default_factory=lambda: next(_ns_id_counter))

    def proc_link(self) -> str:
        """The symlink text shown in ``/proc/<pid>/ns/<kind>``."""
        return f"{self.kind.value}:[{self.ns_id}]"

    def clone_for_unshare(self) -> "Namespace":
        """Create the new namespace that ``unshare`` of this kind produces."""
        return Namespace(self.kind)


@dataclass
class MntNamespace(Namespace):
    """Mount namespace: wraps the :class:`repro.fs.mount.MountNamespace` tree."""

    mounts: MountNamespace = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.MNT

    def clone_for_unshare(self) -> "MntNamespace":
        return MntNamespace(kind=NamespaceKind.MNT, mounts=self.mounts.clone())


@dataclass
class PidNamespace(Namespace):
    """PID namespace: maps global pids to namespace-local (virtual) pids."""

    parent: "PidNamespace | None" = None
    vpid_map: dict[int, int] = field(default_factory=dict)
    next_vpid: int = 1
    init_pid: int | None = None

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.PID

    def register(self, global_pid: int) -> int:
        """Assign the next virtual pid to a process joining this namespace."""
        if global_pid in self.vpid_map:
            return self.vpid_map[global_pid]
        vpid = self.next_vpid
        self.next_vpid += 1
        self.vpid_map[global_pid] = vpid
        if self.init_pid is None:
            self.init_pid = global_pid
        return vpid

    def unregister(self, global_pid: int) -> None:
        """Remove a process from the namespace (on exit)."""
        self.vpid_map.pop(global_pid, None)
        if self.init_pid == global_pid:
            self.init_pid = None

    def vpid_of(self, global_pid: int) -> int | None:
        """Virtual pid of a process, or None when it is not a member."""
        return self.vpid_map.get(global_pid)

    def member_pids(self) -> list[int]:
        """Global pids of every member process."""
        return sorted(self.vpid_map)

    def clone_for_unshare(self) -> "PidNamespace":
        return PidNamespace(kind=NamespaceKind.PID, parent=self)


@dataclass
class NetNamespace(Namespace):
    """Network namespace: interface list and bound abstract sockets."""

    interfaces: list[str] = field(default_factory=lambda: ["lo"])
    bound_ports: dict[int, int] = field(default_factory=dict)  # port -> owner pid

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.NET

    def clone_for_unshare(self) -> "NetNamespace":
        return NetNamespace(kind=NamespaceKind.NET)


@dataclass
class UtsNamespace(Namespace):
    """UTS namespace: hostname and domain name."""

    hostname: str = "host"
    domainname: str = "(none)"

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.UTS

    def clone_for_unshare(self) -> "UtsNamespace":
        return UtsNamespace(kind=NamespaceKind.UTS, hostname=self.hostname,
                            domainname=self.domainname)


@dataclass
class IpcNamespace(Namespace):
    """IPC namespace: System-V shared memory / message queue identifiers."""

    shm_segments: dict[int, int] = field(default_factory=dict)  # id -> size
    msg_queues: dict[int, list] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.IPC

    def clone_for_unshare(self) -> "IpcNamespace":
        return IpcNamespace(kind=NamespaceKind.IPC)


@dataclass
class UserNamespace(Namespace):
    """User namespace: uid/gid mappings between the namespace and its parent."""

    parent: "UserNamespace | None" = None
    uid_map: list[tuple[int, int, int]] = field(default_factory=lambda: [(0, 0, 4294967295)])
    gid_map: list[tuple[int, int, int]] = field(default_factory=lambda: [(0, 0, 4294967295)])

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.USER

    def clone_for_unshare(self) -> "UserNamespace":
        return UserNamespace(kind=NamespaceKind.USER, parent=self)


@dataclass
class CgroupNamespace(Namespace):
    """Cgroup namespace: the cgroup path that appears as the namespace root."""

    root_path: str = "/"

    def __post_init__(self) -> None:
        self.kind = NamespaceKind.CGROUP

    def clone_for_unshare(self) -> "CgroupNamespace":
        return CgroupNamespace(kind=NamespaceKind.CGROUP, root_path=self.root_path)


def make_host_namespaces(mounts: MountNamespace) -> dict[NamespaceKind, Namespace]:
    """Build the initial (host) namespace set for pid 1."""
    return {
        NamespaceKind.MNT: MntNamespace(kind=NamespaceKind.MNT, mounts=mounts),
        NamespaceKind.PID: PidNamespace(kind=NamespaceKind.PID),
        NamespaceKind.NET: NetNamespace(kind=NamespaceKind.NET, interfaces=["lo", "eth0"]),
        NamespaceKind.UTS: UtsNamespace(kind=NamespaceKind.UTS, hostname="host"),
        NamespaceKind.IPC: IpcNamespace(kind=NamespaceKind.IPC),
        NamespaceKind.USER: UserNamespace(kind=NamespaceKind.USER),
        NamespaceKind.CGROUP: CgroupNamespace(kind=NamespaceKind.CGROUP),
    }

"""Process objects: identity, namespaces, file descriptors and credentials."""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.errors import FsError
from repro.fs.mount import MountNamespace
from repro.fs.vfs import Credentials, VNode
from repro.kernel.capabilities import CapabilitySet
from repro.kernel.lsm import LsmProfile, UNCONFINED
from repro.kernel.namespaces import MntNamespace, Namespace, NamespaceKind, PidNamespace

#: Soft cap on per-process file descriptors (RLIMIT_NOFILE).
DEFAULT_NOFILE_LIMIT = 1024


@dataclass
class Rlimits:
    """The subset of resource limits the reproduction cares about."""

    fsize_bytes: int | None = None       # RLIMIT_FSIZE
    nofile: int = DEFAULT_NOFILE_LIMIT   # RLIMIT_NOFILE
    nproc: int | None = None             # RLIMIT_NPROC


class Process:
    """A simulated process/task."""

    def __init__(self, pid: int, ppid: int, argv: list[str], env: dict[str, str],
                 namespaces: dict[NamespaceKind, Namespace], root: VNode, cwd: VNode,
                 cwd_path: str = "/", uid: int = 0, gid: int = 0,
                 groups: frozenset[int] = frozenset(),
                 caps: CapabilitySet | None = None,
                 lsm_profile: LsmProfile = UNCONFINED) -> None:
        self.pid = pid
        self.ppid = ppid
        self.argv = list(argv)
        self.env = dict(env)
        self.namespaces = dict(namespaces)
        self.root = root
        self.cwd = cwd
        self.cwd_path = cwd_path
        self.uid = uid
        self.gid = gid
        self.groups = frozenset(groups)
        self.caps = caps or CapabilitySet.for_host_root()
        self.lsm_profile = lsm_profile
        self.umask = 0o022
        self.rlimits = Rlimits()
        self.fds: dict[int, object] = {}
        self._next_fd = 3           # 0/1/2 reserved for stdio
        self.children: list[int] = []
        self.state = "running"      # running | zombie | dead
        self.exit_code: int | None = None
        self.start_time_ns = 0
        #: CPU time consumed while scheduled by the multi-tenant scheduler
        #: (see :mod:`repro.kernel.cpu`); stays 0 for processes that only
        #: ever run inline on the virtual clock.
        self.cpu_time_ns = 0
        #: Memoised Credentials plus the identity inputs it was built from.
        #: Every syscall builds a path context; rebuilding the frozenset-heavy
        #: Credentials per trap dominated dispatch.  The key tuple is compared
        #: on each call, so direct attribute writes (tests poke ``uid`` etc.)
        #: invalidate naturally without setter hooks.
        self._creds_cache: Credentials | None = None
        self._creds_key: tuple | None = None

    # ------------------------------------------------------------- identity
    @property
    def comm(self) -> str:
        """Short command name (basename of argv[0])."""
        if not self.argv:
            return "unknown"
        return self.argv[0].rsplit("/", 1)[-1][:15]

    def credentials(self) -> Credentials:
        """Credentials used by the VFS for this process (memoised)."""
        key = (self.uid, self.gid, self.groups, self.caps.effective,
               self.umask, self.rlimits.fsize_bytes)
        if self._creds_key == key:
            return self._creds_cache
        creds = Credentials(
            uid=self.uid,
            gid=self.gid,
            groups=self.groups,
            capabilities=self.caps.effective,
            umask=self.umask,
            fsize_limit=self.rlimits.fsize_bytes,
        )
        self._creds_cache = creds
        self._creds_key = key
        return creds

    # ------------------------------------------------------------- namespaces
    def namespace(self, kind: NamespaceKind) -> Namespace:
        """The namespace of the given kind this process is a member of."""
        return self.namespaces[kind]

    @property
    def mnt_ns(self) -> MountNamespace:
        """The mount-namespace tree this process sees."""
        ns = self.namespaces[NamespaceKind.MNT]
        assert isinstance(ns, MntNamespace)
        return ns.mounts

    @property
    def pid_ns(self) -> PidNamespace:
        """The PID namespace this process is a member of."""
        ns = self.namespaces[NamespaceKind.PID]
        assert isinstance(ns, PidNamespace)
        return ns

    def vpid(self) -> int:
        """The pid as seen from inside the process's own PID namespace."""
        return self.pid_ns.vpid_of(self.pid) or self.pid

    # ------------------------------------------------------------- fd table
    def alloc_fd(self, obj: object, fd: int | None = None) -> int:
        """Install an object into the fd table, returning the fd number."""
        if len(self.fds) >= self.rlimits.nofile:
            raise FsError.emfile(f"pid {self.pid}")
        if fd is None:
            fd = self._next_fd
            while fd in self.fds:
                fd += 1
            self._next_fd = fd + 1
        self.fds[fd] = obj
        return fd

    def get_fd(self, fd: int) -> object:
        """Look up a file descriptor."""
        if fd not in self.fds:
            raise FsError.ebadf(f"fd {fd}")
        return self.fds[fd]

    def close_fd(self, fd: int) -> None:
        """Remove a descriptor and close the underlying object."""
        obj = self.fds.pop(fd, None)
        if obj is None:
            raise FsError.ebadf(f"fd {fd}")
        close = getattr(obj, "close", None)
        if callable(close):
            close()

    def close_all_fds(self) -> None:
        """Close every descriptor (process exit)."""
        for fd in list(self.fds):
            try:
                self.close_fd(fd)
            except FsError:
                pass

    # ------------------------------------------------------------- env
    def getenv(self, key: str, default: str | None = None) -> str | None:
        """Read one environment variable."""
        return self.env.get(key, default)

    def setenv(self, key: str, value: str) -> None:
        """Set one environment variable."""
        self.env[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, comm={self.comm!r}, state={self.state})"

"""Per-process syscall facade.

A :class:`Syscalls` object is "libc plus the kernel entry point" for one
process: every call charges the syscall trap cost, builds the process's path
context (mount namespace, root, cwd, credentials) and dispatches either to the
VFS or to the kernel-object layer.  Everything above this module — container
engines, Cntr, the workload generators — interacts with the simulated OS only
through this interface.
"""

from __future__ import annotations

from repro.fs.constants import FileMode, OpenFlags, SeekWhence
from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import DeviceInode, SocketInode
from repro.fs.mount import Mount
from repro.fs.stat import FileStat, StatVfs
from repro.fs.vfs import OpenFile, PathContext
from repro.kernel.kernel import Kernel
from repro.kernel.namespaces import NamespaceKind, UtsNamespace
from repro.kernel.objects import (
    EpollInstance,
    KernelObject,
    UnixListener,
    make_pipe,
    make_pty,
    make_socketpair,
)
from repro.kernel.process import Process

#: Precomputed int mask for "this open may write" — the LSM gate runs on every
#: ``open(2)`` and IntFlag arithmetic there is measurable in the profile.
_WRITE_INTENT = int(OpenFlags.O_WRONLY | OpenFlags.O_RDWR | OpenFlags.O_CREAT)


class Syscalls:
    """The system-call interface bound to one process."""

    def __init__(self, kernel: Kernel, process: Process) -> None:
        self.kernel = kernel
        self.process = process
        self.vfs = kernel.vfs
        #: Memoised PathContext: rebuilt only when an identity input (mount
        #: namespace, root, cwd, credentials) changes.  All four are replaced
        #: wholesale on mutation (unshare/setns/chroot/cred changes), so four
        #: ``is`` checks decide validity — the VFS treats the context as
        #: read-only, making sharing one object across syscalls safe.
        self._ctx_cache: PathContext | None = None

    # ------------------------------------------------------------- context
    def _charge(self) -> None:
        # The memory controller attributes page-cache and dirty charges to
        # the cgroup of the process whose syscall is executing ("current").
        self.kernel.memcg.set_current(self.process.pid)
        self.kernel.clock.advance(self.kernel.costs.syscall_ns)

    def _ctx(self) -> PathContext:
        proc = self.process
        creds = proc.credentials()
        ns = proc.mnt_ns
        ctx = self._ctx_cache
        if ctx is not None and ctx.creds is creds and ctx.ns is ns \
                and ctx.root is proc.root and ctx.cwd is proc.cwd:
            return ctx
        ctx = PathContext(ns=ns, root=proc.root, cwd=proc.cwd, creds=creds)
        self._ctx_cache = ctx
        return ctx

    def _lsm_check(self, path: str, write: bool = False) -> None:
        self.process.lsm_profile.check_path(path, write)

    def _write_creds(self):
        """Credentials for the VFS write path, or None when they cannot matter.

        The VFS consults them only to enforce ``RLIMIT_FSIZE``; building the
        frozenset-heavy :class:`Credentials` object on every write is pure
        hot-path overhead for the (default) unlimited case.
        """
        if self.process.rlimits.fsize_bytes is None:
            return None
        return self.process.credentials()

    # ------------------------------------------------------------- identity
    def getpid(self) -> int:
        """Pid as seen inside the process's PID namespace."""
        return self.process.vpid()

    def sched_yield(self) -> int:
        """Relinquish the CPU (``sched_yield(2)``).

        Inline (non-scheduled) callers just pay the trap cost; workload
        generators running under :mod:`repro.kernel.cpu` call this before a
        ``yield`` statement so the voluntary preemption point also charges
        the syscall the real program would make.
        """
        self._charge()
        return 0

    def getpid_global(self) -> int:
        """Host (global) pid."""
        return self.process.pid

    def setuid(self, uid: int) -> None:
        """Change uid (requires CAP_SETUID when not already that uid)."""
        self._charge()
        if uid != self.process.uid and not self.process.caps.has("CAP_SETUID"):
            raise FsError.eperm("setuid")
        self.process.uid = uid

    def setgid(self, gid: int) -> None:
        """Change gid (requires CAP_SETGID)."""
        self._charge()
        if gid != self.process.gid and not self.process.caps.has("CAP_SETGID"):
            raise FsError.eperm("setgid")
        self.process.gid = gid

    def umask(self, mask: int) -> int:
        """Set the file-creation mask; returns the previous mask."""
        previous = self.process.umask
        self.process.umask = mask & 0o777
        return previous

    def setrlimit_fsize(self, limit: int | None) -> None:
        """Set RLIMIT_FSIZE."""
        self.process.rlimits.fsize_bytes = limit

    def sethostname(self, hostname: str) -> None:
        """Set the hostname of the process's UTS namespace."""
        self._charge()
        uts = self.process.namespaces[NamespaceKind.UTS]
        assert isinstance(uts, UtsNamespace)
        uts.hostname = hostname

    def gethostname(self) -> str:
        """Hostname of the process's UTS namespace."""
        uts = self.process.namespaces[NamespaceKind.UTS]
        assert isinstance(uts, UtsNamespace)
        return uts.hostname

    # ------------------------------------------------------------- fd-based I/O
    def open(self, path: str, flags: int = OpenFlags.O_RDONLY, mode: int = 0o644) -> int:
        """``open(2)``; returns a file descriptor."""
        self._charge()
        write = bool(int(flags) & _WRITE_INTENT)
        self._lsm_check(path, write)
        ctx = self._ctx()
        # Device nodes are dispatched to their driver instead of the VFS.
        try:
            vnode = self.vfs.resolve(ctx, path)
            inode = vnode.inode()
        except FsError:
            inode = None
        if inode is not None and isinstance(inode, DeviceInode):
            handle = self.kernel.open_device(inode.rdev)
            return self.process.alloc_fd(handle)
        handle = self.vfs.open(ctx, path, flags, mode, owner_pid=self.process.pid)
        return self.process.alloc_fd(handle)

    def close(self, fd: int) -> None:
        """``close(2)``."""
        self._charge()
        self.process.close_fd(fd)

    def _file(self, fd: int) -> OpenFile:
        obj = self.process.get_fd(fd)
        if not isinstance(obj, OpenFile):
            raise FsError.einval(f"fd {fd} is not a regular file")
        return obj

    def read(self, fd: int, size: int) -> bytes:
        """``read(2)`` on any descriptor type."""
        self._charge()
        obj = self.process.get_fd(fd)
        if isinstance(obj, OpenFile):
            return self.vfs.read(obj, size)
        assert isinstance(obj, KernelObject)
        data = obj.read(size)
        self.kernel.clock.advance(int(self.kernel.costs.copy_cost(len(data))))
        return data

    def write(self, fd: int, data: bytes) -> int:
        """``write(2)`` on any descriptor type."""
        self._charge()
        obj = self.process.get_fd(fd)
        if isinstance(obj, OpenFile):
            return self.vfs.write(obj, data, creds=self._write_creds())
        assert isinstance(obj, KernelObject)
        written = obj.write(data)
        self.kernel.clock.advance(int(self.kernel.costs.copy_cost(written)))
        return written

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        """``pread(2)``."""
        self._charge()
        return self.vfs.pread(self._file(fd), size, offset)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """``pwrite(2)``."""
        self._charge()
        return self.vfs.pwrite(self._file(fd), data, offset,
                               creds=self._write_creds())

    def lseek(self, fd: int, offset: int, whence: SeekWhence = SeekWhence.SEEK_SET) -> int:
        """``lseek(2)``."""
        self._charge()
        return self.vfs.lseek(self._file(fd), offset, whence)

    def fstat(self, fd: int) -> FileStat:
        """``fstat(2)``."""
        self._charge()
        return self.vfs.fstat(self._file(fd))

    def fsync(self, fd: int) -> None:
        """``fsync(2)``."""
        self._charge()
        self.vfs.fsync(self._file(fd), datasync=False)

    def fdatasync(self, fd: int) -> None:
        """``fdatasync(2)``."""
        self._charge()
        self.vfs.fsync(self._file(fd), datasync=True)

    def ftruncate(self, fd: int, size: int) -> None:
        """``ftruncate(2)``."""
        self._charge()
        self.vfs.ftruncate(self._file(fd), size)

    def fallocate(self, fd: int, mode: int, offset: int, length: int) -> None:
        """``fallocate(2)``."""
        self._charge()
        self.vfs.fallocate(self._file(fd), mode, offset, length)

    def flock(self, fd: int, lock_type, start: int = 0, length: int = 0) -> None:
        """Advisory locking on an open file."""
        self._charge()
        handle = self._file(fd)
        handle.fs.locks(handle.ino).acquire(self.process.pid, lock_type, start, length)

    def dup(self, fd: int) -> int:
        """``dup(2)`` — both descriptors share the open file description."""
        self._charge()
        return self.process.alloc_fd(self.process.get_fd(fd))

    def dup2(self, fd: int, newfd: int) -> int:
        """``dup2(2)``."""
        self._charge()
        obj = self.process.get_fd(fd)
        if newfd in self.process.fds:
            self.process.fds.pop(newfd)
        return self.process.alloc_fd(obj, fd=newfd)

    # ------------------------------------------------------------- path ops
    def stat(self, path: str) -> FileStat:
        """``stat(2)``."""
        self._charge()
        return self.vfs.stat(self._ctx(), path, follow=True)

    def lstat(self, path: str) -> FileStat:
        """``lstat(2)``."""
        self._charge()
        return self.vfs.stat(self._ctx(), path, follow=False)

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves."""
        self._charge()
        return self.vfs.exists(self._ctx(), path)

    def access(self, path: str, mode: int) -> None:
        """``access(2)``."""
        self._charge()
        self.vfs.access(self._ctx(), path, mode)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """``mkdir(2)``."""
        self._charge()
        self._lsm_check(path, write=True)
        self.vfs.mkdir(self._ctx(), path, mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """Recursive mkdir."""
        self._charge()
        self.vfs.makedirs(self._ctx(), path, mode)

    def rmdir(self, path: str) -> None:
        """``rmdir(2)``."""
        self._charge()
        self.vfs.rmdir(self._ctx(), path)

    def unlink(self, path: str) -> None:
        """``unlink(2)``."""
        self._charge()
        self._lsm_check(path, write=True)
        self.vfs.unlink(self._ctx(), path)

    def rename(self, old: str, new: str, flags: int = 0) -> None:
        """``rename(2)``."""
        self._charge()
        self.vfs.rename(self._ctx(), old, new, flags)

    def symlink(self, target: str, path: str) -> None:
        """``symlink(2)``."""
        self._charge()
        self.vfs.symlink(self._ctx(), target, path)

    def readlink(self, path: str) -> str:
        """``readlink(2)``."""
        self._charge()
        return self.vfs.readlink(self._ctx(), path)

    def link(self, existing: str, new: str) -> None:
        """``link(2)``."""
        self._charge()
        self.vfs.link(self._ctx(), existing, new)

    def mknod(self, path: str, mode: int, rdev: int = 0) -> None:
        """``mknod(2)``."""
        self._charge()
        self.vfs.mknod(self._ctx(), path, mode, rdev)

    def listdir(self, path: str) -> list[str]:
        """Directory entry names (no dot entries)."""
        self._charge()
        return self.vfs.listdir(self._ctx(), path)

    def readdir(self, path: str) -> list[tuple[str, int, int]]:
        """Directory entries with inode numbers and types."""
        self._charge()
        return self.vfs.readdir(self._ctx(), path)

    def chmod(self, path: str, mode: int) -> None:
        """``chmod(2)``."""
        self._charge()
        self.vfs.chmod(self._ctx(), path, mode)

    def chown(self, path: str, uid: int, gid: int) -> None:
        """``chown(2)``."""
        self._charge()
        self.vfs.chown(self._ctx(), path, uid, gid)

    def truncate(self, path: str, size: int) -> None:
        """``truncate(2)``."""
        self._charge()
        self.vfs.truncate(self._ctx(), path, size)

    def utimens(self, path: str, atime_ns: int | None, mtime_ns: int | None) -> None:
        """``utimensat(2)``."""
        self._charge()
        self.vfs.utimens(self._ctx(), path, atime_ns, mtime_ns)

    def statfs(self, path: str) -> StatVfs:
        """``statfs(2)``."""
        self._charge()
        return self.vfs.statfs(self._ctx(), path)

    def setxattr(self, path: str, name: str, value: bytes, flags: int = 0) -> None:
        """``setxattr(2)``."""
        self._charge()
        self.vfs.setxattr(self._ctx(), path, name, value, flags)

    def getxattr(self, path: str, name: str) -> bytes:
        """``getxattr(2)``."""
        self._charge()
        return self.vfs.getxattr(self._ctx(), path, name)

    def listxattr(self, path: str) -> list[str]:
        """``listxattr(2)``."""
        self._charge()
        return self.vfs.listxattr(self._ctx(), path)

    def removexattr(self, path: str, name: str) -> None:
        """``removexattr(2)``."""
        self._charge()
        self.vfs.removexattr(self._ctx(), path, name)

    def set_acl(self, path: str, acl) -> None:
        """Attach a POSIX ACL (``setfacl``)."""
        self._charge()
        self.vfs.set_acl(self._ctx(), path, acl)

    def get_acl(self, path: str):
        """Read the POSIX ACL (``getfacl``)."""
        self._charge()
        return self.vfs.get_acl(self._ctx(), path)

    def name_to_handle_at(self, path: str) -> tuple[int, int, int]:
        """``name_to_handle_at(2)``."""
        self._charge()
        return self.vfs.name_to_handle(self._ctx(), path)

    def open_by_handle_at(self, handle: tuple[int, int, int]) -> int:
        """``open_by_handle_at(2)``; returns a read-only file descriptor."""
        self._charge()
        open_file = self.vfs.open_by_handle(self._ctx(), handle,
                                            owner_pid=self.process.pid)
        return self.process.alloc_fd(open_file)

    # ------------------------------------------------------------- cwd / root
    def chdir(self, path: str) -> None:
        """``chdir(2)``."""
        self._charge()
        vnode = self.vfs.resolve(self._ctx(), path)
        if not vnode.inode().is_dir:
            raise FsError.enotdir(path)
        self.process.cwd = vnode
        if path.startswith("/"):
            self.process.cwd_path = path
        else:
            base = self.process.cwd_path.rstrip("/")
            self.process.cwd_path = f"{base}/{path}"

    def getcwd(self) -> str:
        """``getcwd(3)`` (tracked textually)."""
        return self.process.cwd_path

    def chroot(self, path: str) -> None:
        """``chroot(2)``: requires CAP_SYS_CHROOT."""
        self._charge()
        if not self.process.caps.has("CAP_SYS_CHROOT"):
            raise FsError.eperm("chroot")
        vnode = self.vfs.resolve(self._ctx(), path)
        if not vnode.inode().is_dir:
            raise FsError.enotdir(path)
        self.process.root = vnode
        self.process.cwd = vnode
        self.process.cwd_path = "/"

    # ------------------------------------------------------------- mounts
    def mount(self, fs: Filesystem, target: str, read_only: bool = False) -> Mount:
        """Mount a filesystem object at ``target`` in the caller's mount namespace."""
        self._charge()
        if not self.process.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("mount")
        ctx = self._ctx()
        vnode = self.vfs.resolve(ctx, target)
        mount = self.process.mnt_ns.mount(fs, (vnode.mount, vnode.ino), target,
                                          read_only=read_only)
        # A mounted filesystem comes under the kernel-wide vm.* control
        # (/proc/sys/vm): its writeback engine follows the dirty_* knobs and
        # the filesystem becomes reachable from drop_caches, like Linux's
        # writeback control spanning all mounted filesystems.
        self.kernel.vm.register_fs(fs)
        return mount

    def bind_mount(self, source: str, target: str, read_only: bool = False,
                   recursive: bool = False) -> Mount:
        """``mount --bind`` (or ``--rbind`` with ``recursive``)."""
        self._charge()
        if not self.process.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("mount")
        ctx = self._ctx()
        src = self.vfs.resolve(ctx, source)
        dst = self.vfs.resolve(ctx, target)
        return self.process.mnt_ns.bind_mount((src.mount, src.ino),
                                              (dst.mount, dst.ino), target,
                                              read_only=read_only,
                                              recursive=recursive)

    def move_mount(self, source: str, target: str) -> Mount:
        """``mount --move source target``."""
        self._charge()
        if not self.process.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("mount")
        ctx = self._ctx()
        src = self.vfs.resolve(ctx, source)
        dst = self.vfs.resolve(ctx, target)
        if src.ino != src.mount.root_ino:
            raise FsError.einval(f"{source} is not a mountpoint")
        return self.process.mnt_ns.move_mount(src.mount, (dst.mount, dst.ino), target)

    def umount(self, target: str, force: bool = False) -> None:
        """``umount(2)``."""
        self._charge()
        if not self.process.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("umount")
        vnode = self.vfs.resolve(self._ctx(), target)
        if vnode.ino != vnode.mount.root_ino:
            raise FsError.einval(f"{target} is not a mountpoint")
        fs = vnode.mount.fs
        self.process.mnt_ns.umount(vnode.mount, force=force)
        # Once the filesystem has no mounts left in this namespace it leaves
        # the kernel-wide vm.* control (the inverse of the registration in
        # ``mount``).
        if not any(m.fs is fs for m in self.process.mnt_ns.mounts):
            self.kernel.vm.unregister_fs(fs)

    def mount_table(self) -> list[dict]:
        """The caller's view of ``/proc/self/mounts``."""
        return self.process.mnt_ns.mount_table()

    # ------------------------------------------------------------- namespaces
    def unshare(self, *kinds: NamespaceKind) -> None:
        """``unshare(2)``."""
        self.kernel.unshare(self.process, set(kinds))

    def setns(self, namespace) -> None:
        """``setns(2)``."""
        self.kernel.setns(self.process, namespace)

    def setns_to_process(self, target_pid: int,
                         kinds: set[NamespaceKind] | None = None) -> None:
        """Join the namespaces of another process (by global pid)."""
        target = self.kernel.find_process(target_pid)
        self.kernel.setns_all_of(self.process, target, kinds)

    # ------------------------------------------------------------- processes
    def fork(self, argv: list[str] | None = None, env: dict[str, str] | None = None) -> Process:
        """Fork (optionally exec) a child process; returns the child object."""
        return self.kernel.fork(self.process, argv=argv, env=env)

    def spawn(self, argv: list[str], env: dict[str, str] | None = None) -> "Syscalls":
        """Fork + exec convenience: returns a syscall facade for the child."""
        child = self.kernel.fork(self.process, argv=argv, env=env)
        return Syscalls(self.kernel, child)

    def exit(self, code: int = 0) -> None:
        """``exit(2)``."""
        # Like every other trap, exiting charges the syscall cost: the fd
        # teardown below drops inodes and invalidates caches, and uncharged
        # kernel work would deflate virtual time (clock-accounting rule).
        self._charge()
        self.kernel.exit_process(self.process, code)

    def kill(self, pid: int, signal: int = 15) -> None:
        """``kill(2)`` (only termination signals are modelled)."""
        self._charge()
        target = self.kernel.find_process(pid)
        if not self.process.caps.has("CAP_KILL") and self.process.uid not in (0, target.uid):
            raise FsError.eperm("kill")
        if signal in (9, 15):
            self.kernel.exit_process(target, code=128 + signal)

    def ptrace_attach(self, pid: int) -> bool:
        """``ptrace(PTRACE_ATTACH)``: returns whether the attach is permitted."""
        self._charge()
        target = self.kernel.find_process(pid)
        return self.kernel.ptrace_allowed(self.process, target)

    # ------------------------------------------------------------- IPC objects
    def pipe(self) -> tuple[int, int]:
        """``pipe(2)``: returns (read_fd, write_fd)."""
        self._charge()
        read_end, write_end = make_pipe()
        return self.process.alloc_fd(read_end), self.process.alloc_fd(write_end)

    def socketpair(self) -> tuple[int, int]:
        """``socketpair(2)`` for AF_UNIX stream sockets."""
        self._charge()
        a, b = make_socketpair()
        return self.process.alloc_fd(a), self.process.alloc_fd(b)

    def unix_listen(self, path: str, backlog: int = 128) -> int:
        """Bind and listen on a Unix socket path."""
        self._charge()
        listener = UnixListener(path, backlog)
        ctx = self._ctx()
        parent, name = self.vfs.resolve(ctx, path, want_parent=True)
        inode = parent.fs.mknod(parent.ino, name, FileMode.S_IFSOCK | 0o666,
                                uid=self.process.uid, gid=self.process.gid)
        assert isinstance(inode, SocketInode)
        inode.socket_id = listener.object_id
        # Key the registry by inode, not path, so that the socket is reachable
        # from any mount namespace that can see it (bind mounts, Cntr's
        # /var/lib/cntr view of the application container).
        self._socket_registry()[(parent.fs.fs_id, inode.ino)] = listener
        return self.process.alloc_fd(listener)

    def unix_connect(self, path: str) -> int:
        """Connect to a Unix socket path."""
        self._charge()
        self.kernel.clock.advance(self.kernel.costs.unix_socket_rtt_ns)
        ctx = self._ctx()
        vnode = self.vfs.resolve(ctx, path)
        inode = vnode.inode()
        if not isinstance(inode, SocketInode):
            raise FsError.econnrefused(path)
        listener = self._socket_registry().get((vnode.fs.fs_id, vnode.ino))
        if listener is None or listener.closed:
            # The socket file exists but nobody is listening behind it.
            raise FsError.econnrefused(path)
        client = listener.enqueue_connection()
        return self.process.alloc_fd(client)

    def unix_accept(self, listener_fd: int) -> int:
        """Accept one pending connection."""
        self._charge()
        listener = self.process.get_fd(listener_fd)
        if not isinstance(listener, UnixListener):
            raise FsError.einval("not a listening socket")
        endpoint = listener.accept()
        return self.process.alloc_fd(endpoint)

    def _socket_registry(self) -> dict[tuple[int, int], UnixListener]:
        registry = getattr(self.kernel, "_unix_sockets", None)
        if registry is None:
            registry = {}
            self.kernel._unix_sockets = registry
        return registry

    # ------------------------------------------------------------- epoll
    def epoll_create(self) -> int:
        """``epoll_create1(2)``."""
        self._charge()
        return self.process.alloc_fd(EpollInstance())

    def epoll_ctl_add(self, epfd: int, fd: int, events: set[str]) -> None:
        """``epoll_ctl(EPOLL_CTL_ADD)``."""
        self._charge()
        epoll = self.process.get_fd(epfd)
        if not isinstance(epoll, EpollInstance):
            raise FsError.einval("not an epoll fd")
        obj = self.process.get_fd(fd)
        if not isinstance(obj, KernelObject):
            raise FsError.eperm("only kernel objects are pollable in this simulation")
        epoll.add(fd, obj, events)

    def epoll_wait(self, epfd: int, max_events: int = 64) -> list[tuple[int, set[str]]]:
        """``epoll_wait(2)`` (non-blocking poll of readiness)."""
        self._charge()
        self.kernel.clock.advance(self.kernel.costs.epoll_wait_ns)
        epoll = self.process.get_fd(epfd)
        if not isinstance(epoll, EpollInstance):
            raise FsError.einval("not an epoll fd")
        return epoll.wait(max_events)

    # ------------------------------------------------------------- pty
    def openpty(self) -> tuple[int, int]:
        """``openpty(3)``: returns (master_fd, slave_fd)."""
        self._charge()
        master, slave = make_pty(self.kernel.next_pty_index())
        return self.process.alloc_fd(master), self.process.alloc_fd(slave)

    # ------------------------------------------------------------- splice
    def splice(self, fd_in: int, fd_out: int, length: int) -> int:
        """``splice(2)``: move bytes between descriptors without a userspace copy."""
        self._charge()
        src = self.process.get_fd(fd_in)
        dst = self.process.get_fd(fd_out)
        costs = self.kernel.costs

        if isinstance(src, OpenFile):
            data = self.vfs.read(src, length)
        else:
            assert isinstance(src, KernelObject)
            data = src.read(length)
        if not data:
            return 0
        if isinstance(dst, OpenFile):
            written = self.vfs.write(dst, data, creds=self._write_creds())
        else:
            assert isinstance(dst, KernelObject)
            written = dst.write(data)
        # splice avoids the user-space copy: charge the cheap remap cost and
        # credit back nothing (the fs/object layers already charged their own
        # per-byte costs, which model the device side, not the copy).
        self.kernel.clock.advance(int(costs.splice_cost(written)))
        return written

    # ------------------------------------------------------------- environment
    def getenv(self, key: str, default: str | None = None) -> str | None:
        """Read an environment variable of the calling process."""
        return self.process.getenv(key, default)

    def setenv(self, key: str, value: str) -> None:
        """Set an environment variable of the calling process."""
        self.process.setenv(key, value)

    def environ(self) -> dict[str, str]:
        """A copy of the process environment."""
        return dict(self.process.env)

"""Steps #2-#4: launch CntrFS, build the nested namespace, start the shell.

:func:`attach` reproduces the complete workflow of Figure 1:

1. the container name is resolved and its context gathered
   (:mod:`repro.core.context`),
2. the CntrFS server is launched either on the host or inside the "fat"
   container (by ``setns``-ing a forked server process into it), and a
   ``/dev/fuse`` connection is opened *before* entering the container,
3. a forked Cntr process joins the application container's namespaces, creates
   a nested mount namespace, marks every mount private, mounts CntrFS on a
   temporary directory, moves the application's view to
   ``<tmp>/var/lib/cntr``, bind-mounts ``/proc``, ``/dev`` and selected
   ``/etc`` files from the application container, and finally chroots into the
   temporary directory,
4. an interactive shell is started on a pseudo-TTY inside the nested
   namespace, with the container's environment applied (except ``PATH``,
   which comes from the tools side), its capabilities dropped to the
   container's set, its cgroup joined and its LSM profile applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.container.engine import Container
from repro.core.cntrfs import CntrFS
from repro.core.context import (
    ContainerContext,
    gather_context,
    open_namespace_handles,
    resolve_container,
)
from repro.core.pty_forward import PtyForwarder
from repro.core.socket_proxy import SocketProxy
from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError
from repro.fuse.client import FuseClientFs
from repro.fuse.device import FuseDeviceHandle
from repro.fuse.options import FuseMountOptions
from repro.kernel.capabilities import CapabilitySet
from repro.kernel.machine import Machine
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscalls

_session_counter = itertools.count(1)

#: Where the application container's original root appears inside the session.
APPLICATION_MOUNTPOINT = "/var/lib/cntr"
#: Configuration files bind-mounted from the application container (paper §3.2.3).
BIND_CONFIG_FILES = ("/etc/passwd", "/etc/group", "/etc/hostname", "/etc/hosts",
                     "/etc/resolv.conf")


class CntrAttachError(Exception):
    """Raised when the attach workflow cannot be completed."""


@dataclass
class AttachOptions:
    """User-facing options of ``cntr attach``."""

    #: Name/id of the fat container holding the tools; None means "use the host".
    fat_container: str | None = None
    #: Shell executable looked up on the tools side.
    shell: str = "/bin/bash"
    #: FUSE mount options (the paper's defaults enable every optimization
    #: except splice-write).
    fuse_options: FuseMountOptions = field(default_factory=FuseMountOptions.paper_defaults)
    #: Number of CntrFS worker threads.
    threads: int = 4
    #: Forward these Unix socket paths from the tools side into the container
    #: (e.g. the X11 socket), as described for graphical applications.
    forward_sockets: tuple[str, ...] = ()


@dataclass
class CntrSession:
    """A live attach session."""

    machine: Machine
    container: Container | None
    context: ContainerContext
    options: AttachOptions
    cntr_process: Process
    nested_process: Process
    shell_process: Process
    server: CntrFS
    client_fs: FuseClientFs
    pty_master_fd: int
    pty_forwarder: PtyForwarder
    socket_proxies: list[SocketProxy]
    session_id: int = field(default_factory=lambda: next(_session_counter))
    closed: bool = False

    @property
    def shell_syscalls(self) -> Syscalls:
        """Syscall facade of the interactive shell (inside the nested namespace)."""
        return Syscalls(self.machine.kernel, self.shell_process)

    def exec_tool(self, path: str, argv: list[str] | None = None) -> Syscalls:
        """Run a tool from the fat image/host inside the nested namespace.

        The binary is resolved against the tools-side ``PATH``, loaded through
        CntrFS (charging the FUSE read costs an exec would), and a new process
        is forked inside the nested namespace.
        """
        sc = self.shell_syscalls
        resolved = self._resolve_binary(sc, path)
        fd = sc.open(resolved, OpenFlags.O_RDONLY)
        try:
            # Demand-load the binary through the FUSE mount (text + data pages).
            while sc.read(fd, 1 << 20):
                pass
        finally:
            sc.close(fd)
        child = self.machine.kernel.fork(self.shell_process,
                                         argv=[resolved] + list(argv or []))
        return Syscalls(self.machine.kernel, child)

    def _resolve_binary(self, sc: Syscalls, path: str) -> str:
        if path.startswith("/"):
            if not sc.exists(path):
                raise CntrAttachError(f"no such tool: {path}")
            return path
        path_var = sc.getenv("PATH") or "/usr/bin:/bin"
        for prefix in path_var.split(":"):
            candidate = f"{prefix.rstrip('/')}/{path}"
            if sc.exists(candidate):
                return candidate
        raise CntrAttachError(f"tool {path!r} not found in PATH")

    def application_path(self, path: str) -> str:
        """Translate an application-container path to its nested-namespace location."""
        return f"{APPLICATION_MOUNTPOINT}{path}" if path.startswith("/") else path

    def pump_io(self, rounds: int = 4) -> None:
        """Drive the PTY forwarder and socket proxies for a few event-loop rounds."""
        for _ in range(rounds):
            self.pty_forwarder.pump()
            for proxy in self.socket_proxies:
                proxy.pump()

    def detach(self) -> None:
        """Tear the session down: shell, proxies, nested process, FUSE server."""
        if self.closed:
            return
        self.closed = True
        kernel = self.machine.kernel
        for proxy in self.socket_proxies:
            proxy.close()
        self.pty_forwarder.close()
        self.client_fs.flush_writeback()
        self.client_fs.flush_forgets()
        for proc in (self.shell_process, self.nested_process, self.cntr_process):
            if proc.pid in kernel.processes:
                kernel.exit_process(proc)


def attach(machine: Machine, engines, name_or_id: str | None = None,
           pid: int | None = None, options: AttachOptions | None = None) -> CntrSession:
    """Attach to a container (by name/id across engines, or directly by pid)."""
    options = options or AttachOptions()
    engines = engines if isinstance(engines, (list, tuple)) else [engines]

    # --- Step 1: resolve the container and gather its context ---------------
    if pid is None:
        if name_or_id is None:
            raise CntrAttachError("either a container name or a pid is required")
        pid = resolve_container(engines, name_or_id)
    context = gather_context(machine, pid)
    open_namespace_handles(machine, pid)
    container = _find_container(engines, name_or_id) if name_or_id else None

    # The Cntr process itself: a host process holding the /dev/fuse fd and the
    # user-facing terminal.
    cntr_sc = machine.spawn_host_process(["/usr/bin/cntr", "attach", name_or_id or str(pid)])
    cntr_proc = cntr_sc.process

    # Open /dev/fuse *before* attaching to the container (paper §3.2.1: the fd
    # must exist already because /dev inside the container has no fuse node).
    fuse_fd = cntr_sc.open("/dev/fuse", OpenFlags.O_RDWR)
    fuse_handle = cntr_proc.get_fd(fuse_fd)
    if not isinstance(fuse_handle, FuseDeviceHandle):
        raise CntrAttachError("/dev/fuse did not provide a FUSE connection")
    connection = fuse_handle.connection

    # --- Step 2: launch the CntrFS server ------------------------------------
    server_sc = cntr_sc.spawn(["/usr/bin/cntr", "cntrfs-server"])
    server_proc = server_sc.process
    if options.fat_container is not None:
        fat_pid = resolve_container(engines, options.fat_container)
        server_sc.setns_to_process(fat_pid, kinds={NamespaceKind.MNT, NamespaceKind.USER})
        tools_env = gather_context(machine, fat_pid).environment
    else:
        tools_env = dict(machine.init.env)
    server = CntrFS(machine.kernel, server_proc, threads=options.threads)
    connection.attach_server(server)

    # --- Step 3: initialise the tools (nested) namespace ---------------------
    nested_sc = cntr_sc.spawn(["/usr/bin/cntr", "nested"])
    nested_proc = nested_sc.process
    # Join the application container's namespaces and cgroup.
    machine.kernel.setns_all_of(nested_proc, machine.kernel.find_process(pid))
    machine.kernel.cgroups.attach(nested_proc.pid, context.cgroup_path)
    # Create the nested mount namespace and make everything private so that
    # nothing we mount propagates back into the application container.
    nested_sc.unshare(NamespaceKind.MNT)
    nested_proc.mnt_ns.make_all_private()

    tmp_dir = f"/tmp/.cntr-attach-{next(_session_counter)}"
    nested_sc.makedirs(tmp_dir)

    fuse_options = options.fuse_options.with_overrides(threads=options.threads)
    client_fs = FuseClientFs(f"cntrfs-{pid}", machine.kernel.clock,
                             machine.kernel.costs, connection,
                             options=fuse_options, tracer=machine.kernel.tracer)
    client_fs.store_data = machine.rootfs.store_data
    nested_sc.mount(client_fs, tmp_dir)

    # Make the application's old root visible under <tmp>/var/lib/cntr,
    # including every pre-existing mountpoint (/tmp, /proc, volumes), which is
    # why the bind is recursive.
    app_mountpoint = f"{tmp_dir}{APPLICATION_MOUNTPOINT}"
    nested_sc.makedirs(app_mountpoint)
    nested_sc.bind_mount("/", app_mountpoint, recursive=True)
    # The application's /proc and /dev must stay visible to the tools so that
    # debuggers can inspect the application processes and devices.
    for special in ("/proc", "/dev"):
        if nested_sc.exists(special) and nested_sc.exists(f"{tmp_dir}{special}"):
            nested_sc.bind_mount(special, f"{tmp_dir}{special}")
    for config_file in BIND_CONFIG_FILES:
        if nested_sc.exists(config_file) and nested_sc.exists(f"{tmp_dir}{config_file}"):
            nested_sc.bind_mount(config_file, f"{tmp_dir}{config_file}")

    # Atomically swap the root: the temporary directory becomes /.
    nested_sc.chroot(tmp_dir)

    # Apply the container's execution context to the nested process: the
    # environment (except PATH, inherited from the tools side), uid/gid,
    # capabilities and LSM profile.
    nested_proc.env = dict(context.environment_without_path())
    nested_proc.env["PATH"] = tools_env.get(
        "PATH", "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin")
    nested_proc.uid = context.uid
    nested_proc.gid = context.gid
    nested_proc.groups = context.groups
    nested_proc.caps = CapabilitySet(
        effective=context.effective_capabilities,
        permitted=context.effective_capabilities,
        inheritable=frozenset(),
        bounding=context.effective_capabilities)
    nested_proc.lsm_profile = machine.kernel.lsm.get(context.lsm_profile)

    # --- Step 4: interactive shell on a pseudo-TTY ----------------------------
    master_fd, slave_fd = cntr_sc.openpty()
    shell_path = _resolve_shell(nested_sc, options.shell)
    shell_proc = machine.kernel.fork(nested_proc, argv=[shell_path, "-i"])
    shell_sc = Syscalls(machine.kernel, shell_proc)
    slave_obj = cntr_proc.get_fd(slave_fd)
    for fd in (0, 1, 2):
        shell_proc.fds[fd] = slave_obj
    forwarder = PtyForwarder(machine.kernel, cntr_proc, master_fd)

    proxies: list[SocketProxy] = []
    for socket_path in options.forward_sockets:
        # The listener lives inside the *application's* filesystem (reachable
        # for the application at `socket_path`, for us under /var/lib/cntr);
        # the target is the real server socket on the tools side.
        proxies.append(SocketProxy(machine.kernel, listen_sc=shell_sc,
                                   listen_path=f"{APPLICATION_MOUNTPOINT}{socket_path}",
                                   connect_sc=server_sc, target_path=socket_path))

    return CntrSession(machine=machine, container=container, context=context,
                       options=options, cntr_process=cntr_proc,
                       nested_process=nested_proc, shell_process=shell_proc,
                       server=server, client_fs=client_fs,
                       pty_master_fd=master_fd, pty_forwarder=forwarder,
                       socket_proxies=proxies)


def _resolve_shell(sc: Syscalls, shell: str) -> str:
    """Find a usable shell on the tools side, falling back to /bin/sh."""
    candidates = [shell, "/bin/bash", "/usr/bin/bash", "/bin/sh", "/usr/bin/sh"]
    for candidate in candidates:
        try:
            if sc.exists(candidate):
                return candidate
        except FsError:
            continue
    raise CntrAttachError(f"no shell found (tried {', '.join(candidates)})")


def _find_container(engines, name_or_id: str) -> Container | None:
    for engine in engines:
        try:
            return engine.find(name_or_id)
        except Exception:  # noqa: BLE001 - engine-specific not-found errors
            continue
    return None

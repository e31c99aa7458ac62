"""Booting a simulated host machine.

:func:`boot` assembles a complete host: an ext4-like root filesystem populated
with a small FHS tree and a set of host tools (debuggers, editors, shells — the
things the paper's "fat image / host tools" use-cases revolve around), the
``/proc``, ``/dev``, ``/sys``, ``/tmp`` and ``/run`` mounts, and the init
process.  Everything else (container engines, Cntr) runs on top of the
returned :class:`Machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.constants import FileMode, OpenFlags
from repro.fs.ext4 import Ext4Fs
from repro.fs.tmpfs import TmpFS
from repro.kernel.kernel import (
    DEV_FUSE_RDEV,
    DEV_NULL_RDEV,
    DEV_URANDOM_RDEV,
    DEV_ZERO_RDEV,
    Kernel,
)
from repro.kernel.procfs import ProcFS
from repro.kernel.process import Process
from repro.kernel.syscalls import Syscalls
from repro.fs.mount import MountNamespace
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer

#: Host tools installed under /usr/bin with their nominal sizes in bytes.
HOST_TOOLS = {
    "bash": 1_100_000,
    "sh": 120_000,
    "ls": 140_000,
    "cat": 40_000,
    "cp": 150_000,
    "mv": 140_000,
    "rm": 70_000,
    "find": 300_000,
    "grep": 200_000,
    "tar": 420_000,
    "gzip": 100_000,
    "ps": 140_000,
    "top": 120_000,
    "free": 40_000,
    "gdb": 8_500_000,
    "strace": 1_600_000,
    "ltrace": 350_000,
    "perf": 9_000_000,
    "tcpdump": 1_200_000,
    "vim": 3_200_000,
    "nano": 280_000,
    "less": 180_000,
    "curl": 250_000,
    "ip": 650_000,
    "ss": 200_000,
    "lsof": 160_000,
    "du": 150_000,
    "df": 120_000,
    "python3": 5_400_000,
    "htop": 350_000,
    "git": 3_400_000,
}

#: Host configuration files and their contents.
HOST_ETC_FILES = {
    "/etc/passwd": "root:x:0:0:root:/root:/bin/bash\nnobody:x:65534:65534::/:/sbin/nologin\n",
    "/etc/group": "root:x:0:\nnogroup:x:65534:\n",
    "/etc/hostname": "host\n",
    "/etc/hosts": "127.0.0.1 localhost\n",
    "/etc/resolv.conf": "nameserver 10.0.0.2\n",
    "/etc/os-release": 'NAME="Repro Host Linux"\nID=repro\nVERSION_ID="1.0"\n',
    "/etc/ld.so.cache": "# cache\n",
    "/etc/nsswitch.conf": "passwd: files\ngroup: files\nhosts: files dns\n",
}


@dataclass
class Machine:
    """A booted simulated host."""

    kernel: Kernel
    init: Process
    rootfs: Ext4Fs
    procfs: ProcFS
    devfs: TmpFS
    tmpfs: TmpFS
    syscalls: Syscalls = field(init=False)

    def __post_init__(self) -> None:
        self.syscalls = Syscalls(self.kernel, self.init)

    @property
    def clock(self) -> VirtualClock:
        """The machine's virtual clock."""
        return self.kernel.clock

    def spawn_host_process(self, argv: list[str],
                           env: dict[str, str] | None = None) -> Syscalls:
        """Fork a new host process off init and return its syscall facade."""
        return self.syscalls.spawn(argv, env)


def _write_file(sc: Syscalls, path: str, content: bytes | str, mode: int = 0o644,
                size: int | None = None) -> None:
    """Create a file with optional synthetic padding up to ``size`` bytes."""
    if isinstance(content, str):
        content = content.encode()
    fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC, mode)
    sc.write(fd, content)
    if size is not None and size > len(content):
        sc.ftruncate(fd, size)
    sc.close(fd)


def populate_host_rootfs(sc: Syscalls) -> None:
    """Create the FHS skeleton, host tools and configuration files."""
    for directory in ("/bin", "/sbin", "/usr", "/usr/bin", "/usr/sbin", "/usr/lib",
                      "/usr/share", "/usr/local", "/usr/local/bin", "/lib", "/lib64",
                      "/etc", "/root", "/home", "/var", "/var/log", "/var/lib",
                      "/var/cache", "/opt", "/srv", "/mnt", "/media", "/proc", "/sys",
                      "/dev", "/tmp", "/run"):
        sc.makedirs(directory)
    for name, size in HOST_TOOLS.items():
        header = f"#!ELF simulated binary {name}\n".encode()
        _write_file(sc, f"/usr/bin/{name}", header, mode=0o755, size=size)
    sc.symlink("/usr/bin/bash", "/bin/bash")
    sc.symlink("/usr/bin/sh", "/bin/sh")
    sc.symlink("/usr/bin/gzip", "/bin/gzip")
    _write_file(sc, "/usr/lib/libc.so.6", b"\x7fELF libc", mode=0o755, size=1_900_000)
    _write_file(sc, "/usr/lib/libpthread.so.0", b"\x7fELF pthread", mode=0o755, size=150_000)
    _write_file(sc, "/usr/lib/libncurses.so.6", b"\x7fELF ncurses", mode=0o755, size=400_000)
    _write_file(sc, "/sbin/init", b"\x7fELF init", mode=0o755, size=60_000)
    for path, content in HOST_ETC_FILES.items():
        _write_file(sc, path, content)
    # Home directory for root with a debugger configuration the paper's
    # host-to-container use case would pick up.
    sc.makedirs("/root/.config")
    _write_file(sc, "/root/.gdbinit", "set pagination off\n")
    _write_file(sc, "/root/.bashrc", "export PS1='host# '\n")


def populate_devfs(sc: Syscalls) -> None:
    """Create the standard device nodes under /dev."""
    sc.mknod("/dev/null", FileMode.S_IFCHR | 0o666, rdev=DEV_NULL_RDEV)
    sc.mknod("/dev/zero", FileMode.S_IFCHR | 0o666, rdev=DEV_ZERO_RDEV)
    sc.mknod("/dev/urandom", FileMode.S_IFCHR | 0o666, rdev=DEV_URANDOM_RDEV)
    sc.mknod("/dev/random", FileMode.S_IFCHR | 0o666, rdev=DEV_URANDOM_RDEV)
    sc.mknod("/dev/fuse", FileMode.S_IFCHR | 0o666, rdev=DEV_FUSE_RDEV)
    sc.makedirs("/dev/pts")
    sc.makedirs("/dev/shm")


def boot(cost_model: CostModel | None = None, tracer: Tracer | None = None,
         store_data: bool = True, page_cache_bytes: int = 12 << 30) -> Machine:
    """Boot a simulated host and return the :class:`Machine`.

    ``store_data=False`` turns off byte storage for file contents on every
    filesystem created here; the benchmarks use it to keep memory flat.
    """
    clock = VirtualClock()
    costs = cost_model or CostModel()
    trace = tracer or Tracer(enabled=False)
    kernel = Kernel(clock, costs, trace)

    rootfs = Ext4Fs("rootfs", clock, costs, trace, page_cache_bytes=page_cache_bytes)
    rootfs.store_data = store_data
    # The root mount never goes through Syscalls.mount, so bring it under the
    # kernel-wide vm.* control (dirty_* knobs + drop_caches) by hand.
    kernel.vm.register_fs(rootfs)
    mounts = MountNamespace(rootfs)
    init = kernel.create_init_process(mounts)
    sc = Syscalls(kernel, init)

    populate_host_rootfs(sc)

    # /proc bound to the host PID namespace.
    procfs = ProcFS("proc", kernel, init.pid_ns)
    sc.mount(procfs, "/proc")

    # /dev, /tmp, /run, /sys as tmpfs instances.
    devfs = TmpFS("devtmpfs", clock, costs, trace)
    sc.mount(devfs, "/dev")
    populate_devfs(sc)

    tmpfs = TmpFS("tmpfs", clock, costs, trace)
    tmpfs.store_data = store_data
    sc.mount(tmpfs, "/tmp")
    sc.mount(TmpFS("run", clock, costs, trace), "/run")
    sysfs = TmpFS("sysfs", clock, costs, trace)
    sc.mount(sysfs, "/sys")
    sc.makedirs("/sys/fs/cgroup")
    sc.makedirs("/sys/fs/fuse/connections")
    # /sys/class/bdi: per-device writeback knobs (read_ahead_kb); devices
    # appear here as their filesystems are mounted.  /sys/fs/cgroup: the
    # writable cgroup v2 hierarchy driving the memory controller.
    from repro.kernel.sysfs import BdiSysFS, CgroupFS, TracingFS
    sc.makedirs("/sys/class/bdi")
    sc.mount(BdiSysFS("bdi-sysfs", kernel), "/sys/class/bdi")
    sc.mount(CgroupFS("cgroupfs", kernel), "/sys/fs/cgroup")
    # /sys/kernel/debug/tracing: the ftrace-shaped tracepoint control surface.
    sc.makedirs("/sys/kernel/debug/tracing")
    sc.mount(TracingFS("tracefs", kernel), "/sys/kernel/debug/tracing")

    # Register the FUSE character-device driver (deferred import: the fuse
    # package depends on repro.kernel.objects but not on this module).
    from repro.fuse.device import register_fuse_device
    register_fuse_device(kernel)

    # Mark the host mount tree shared, as systemd does on modern hosts; the
    # container runtimes then make their namespaces private, and Cntr relies
    # on re-marking everything private inside its nested namespace.
    mounts.make_shared(mounts.root_mount, recursive=True)
    # The freshly-populated root tree is the installed system: checkpoint it
    # into the journal's durable image so a simulated power failure replays
    # back to a booted host instead of an empty disk.  Pure bookkeeping.
    rootfs.checkpoint()
    return Machine(kernel=kernel, init=init, rootfs=rootfs, procfs=procfs,
                   devfs=devfs, tmpfs=tmpfs)


#: Cached post-boot kernel snapshots keyed by the ``boot()`` arguments that
#: change the image.  Custom cost models / tracers bypass the cache.
_BOOT_CACHE: dict[tuple[bool, int], "object"] = {}


def boot_forked(store_data: bool = True,
                page_cache_bytes: int = 12 << 30) -> Machine:
    """A booted host cloned from a cached :meth:`Kernel.snapshot` image.

    Observationally identical to :func:`boot` with the same arguments — the
    first call boots for real and snapshots the result; later calls fork the
    frozen image, which is several times cheaper than re-running the whole
    rootfs population.  Every clone is fully independent (no shared mutable
    state), so this is safe for per-test fixtures.
    """
    key = (store_data, page_cache_bytes)
    snap = _BOOT_CACHE.get(key)
    if snap is None:
        m = boot(store_data=store_data, page_cache_bytes=page_cache_bytes)
        snap = m.kernel.snapshot(m)
        _BOOT_CACHE[key] = snap
    _kernel, (machine,) = snap.fork()
    return machine

"""Tests for the kernel layer: processes, namespaces, cgroups, IPC, /proc."""

import errno
import stat

import pytest

from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError
from repro.kernel.capabilities import CapabilitySet, DOCKER_DEFAULT_CAPS
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.objects import make_pipe, make_pty, make_socketpair


class TestBoot:
    def test_init_is_pid_one(self, machine):
        assert machine.init.pid == 1
        assert machine.init.ppid == 0

    def test_host_filesystem_layout(self, machine):
        sc = machine.syscalls
        assert sc.stat("/usr/bin/gdb").st_size > 1_000_000
        assert sc.readlink("/bin/bash") == "/usr/bin/bash"
        assert "proc" in [m["fs_type"] for m in sc.mount_table()]

    def test_devices_work(self, machine):
        sc = machine.syscalls
        fd = sc.open("/dev/zero")
        assert sc.read(fd, 8) == b"\x00" * 8
        sc.close(fd)
        fd = sc.open("/dev/null")
        assert sc.write(fd, b"discard") == 7
        sc.close(fd)


class TestProcesses:
    def test_fork_inherits_environment_and_cwd(self, machine, syscalls):
        syscalls.setenv("MARKER", "42")
        child = syscalls.spawn(["/usr/bin/child"])
        assert child.getenv("MARKER") == "42"
        assert child.getcwd() == syscalls.getcwd()

    def test_exit_removes_process(self, machine, syscalls):
        child = syscalls.spawn(["/usr/bin/child"])
        pid = child.process.pid
        child.exit(0)
        assert pid not in machine.kernel.processes

    def test_kill_requires_permission(self, machine, syscalls):
        victim = syscalls.spawn(["/usr/bin/victim"])
        attacker = syscalls.spawn(["/usr/bin/attacker"])
        attacker.process.uid = 999
        attacker.process.caps = CapabilitySet.empty()
        with pytest.raises(FsError):
            attacker.kill(victim.process.pid)

    def test_fd_limit(self, machine, syscalls):
        syscalls.process.rlimits.nofile = 4
        syscalls.open("/etc/hostname")
        with pytest.raises(FsError) as exc:
            for _ in range(10):
                syscalls.open("/etc/hostname")
        assert exc.value.errno == errno.EMFILE

    def test_rlimit_fsize_independent_after_fork(self, machine, syscalls):
        child = syscalls.spawn(["/usr/bin/child"])
        child.setrlimit_fsize(1024)
        assert syscalls.process.rlimits.fsize_bytes is None


class TestNamespaces:
    def test_unshare_uts_isolates_hostname(self, machine, syscalls):
        original = syscalls.gethostname()
        syscalls.unshare(NamespaceKind.UTS)
        syscalls.sethostname("isolated")
        assert syscalls.gethostname() == "isolated"
        assert machine.syscalls.gethostname() == original

    def test_unshare_mount_namespace_isolates_mounts(self, machine, syscalls):
        from repro.fs.tmpfs import TmpFS
        syscalls.unshare(NamespaceKind.MNT)
        syscalls.process.mnt_ns.make_all_private()
        extra = TmpFS("extra", machine.kernel.clock, machine.kernel.costs)
        syscalls.makedirs("/mnt/extra")
        syscalls.mount(extra, "/mnt/extra")
        child_mounts = [m["mountpoint"] for m in syscalls.mount_table()]
        host_mounts = [m["mountpoint"] for m in machine.syscalls.mount_table()]
        assert "/mnt/extra" in child_mounts
        assert "/mnt/extra" not in host_mounts

    def test_dead_mount_namespaces_leave_their_peer_groups(self, machine):
        """A host mount made after unsharing processes exited is copied
        into no namespace of theirs, only into live peers."""
        from repro.fs.tmpfs import TmpFS
        kernel = machine.kernel
        peers = machine.init.mnt_ns.root_mount.peer_group
        members_before = len(peers.members)
        dead = []
        for i in range(20):
            child = machine.spawn_host_process([f"/usr/bin/unsharer-{i}"])
            child.unshare(NamespaceKind.MNT)
            dead.append(child.process.mnt_ns)
            child.exit()
        live = machine.spawn_host_process(["/usr/bin/still-running"])
        live.unshare(NamespaceKind.MNT)
        assert len(peers.members) == members_before + 1
        machine.syscalls.makedirs("/srv/after-exit")
        extra = TmpFS("after-exit", kernel.clock, kernel.costs)
        machine.syscalls.mount(extra, "/srv/after-exit")
        for ns in dead:
            assert all(m.fs is not extra for m in ns.mounts)
        assert "/srv/after-exit" in [m["mountpoint"] for m in live.mount_table()]

    def test_setns_joins_target_namespace(self, machine, syscalls):
        target = machine.spawn_host_process(["/usr/bin/target"])
        target.unshare(NamespaceKind.UTS)
        target.sethostname("target-ns")
        syscalls.setns(target.process.namespaces[NamespaceKind.UTS])
        assert syscalls.gethostname() == "target-ns"

    def test_unshare_requires_cap_sys_admin(self, machine, syscalls):
        syscalls.process.caps = CapabilitySet.for_container()
        with pytest.raises(FsError):
            syscalls.unshare(NamespaceKind.MNT)

    def test_pid_namespace_virtual_pids(self, machine, syscalls):
        syscalls.unshare(NamespaceKind.PID)
        child = syscalls.spawn(["/usr/bin/inner"])
        assert child.getpid() != child.getpid_global() or child.getpid() == 1

    def test_chroot_confines_path_resolution(self, machine, syscalls):
        syscalls.makedirs("/jail/etc")
        fd = syscalls.open("/jail/etc/inside", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"jailed")
        syscalls.close(fd)
        syscalls.chroot("/jail")
        assert syscalls.read(syscalls.open("/etc/inside"), 100) == b"jailed"
        assert not syscalls.exists("/usr/bin/gdb")
        assert syscalls.exists("/../../etc/inside")


class TestCgroupsAndCaps:
    def test_cgroup_attach_and_lookup(self, machine):
        cg = machine.kernel.cgroups
        cg.attach(123, "/docker/abc")
        assert cg.cgroup_of(123).path == "/docker/abc"
        assert cg.proc_cgroup_line(123) == "0::/docker/abc"

    def test_cgroup_limits_inherit(self, machine):
        cg = machine.kernel.cgroups
        parent = cg.create("/limited")
        parent.limits.memory_limit_bytes = 1 << 30
        child = cg.create("/limited/app")
        assert child.effective_memory_limit() == 1 << 30

    def test_cgroup_remove_busy(self, machine):
        cg = machine.kernel.cgroups
        cg.attach(5, "/busy")
        with pytest.raises(FsError):
            cg.remove("/busy")

    def test_capability_drop(self):
        caps = CapabilitySet.for_host_root().drop({"CAP_SYS_ADMIN"})
        assert not caps.has("CAP_SYS_ADMIN")
        assert caps.has("CAP_CHOWN")

    def test_container_capabilities_are_limited(self):
        caps = CapabilitySet.for_container()
        assert caps.effective == DOCKER_DEFAULT_CAPS
        assert not caps.has("CAP_SYS_ADMIN")


class TestProcfs:
    def test_environ_and_cmdline(self, machine, syscalls):
        syscalls.setenv("FOO", "BAR")
        pid = syscalls.process.pid
        sc = machine.syscalls
        blob = sc.read(sc.open(f"/proc/{pid}/environ"), 1 << 16)
        assert b"FOO=BAR" in blob
        cmdline = sc.read(sc.open(f"/proc/{pid}/cmdline"), 1 << 16)
        assert b"test-process" in cmdline

    def test_ns_links_differ_after_unshare(self, machine, syscalls):
        sc = machine.syscalls
        before = sc.readlink(f"/proc/{syscalls.process.pid}/ns/uts")
        syscalls.unshare(NamespaceKind.UTS)
        after = sc.readlink(f"/proc/{syscalls.process.pid}/ns/uts")
        assert before != after

    def test_status_contains_capabilities(self, machine):
        sc = machine.syscalls
        text = sc.read(sc.open("/proc/1/status"), 1 << 16).decode()
        assert "CapEff" in text and "Pid:\t1" in text

    def test_missing_pid_raises_enoent(self, machine):
        sc = machine.syscalls
        with pytest.raises(FsError):
            sc.open("/proc/99999/status")

    def test_proc_listing_contains_pids(self, machine, syscalls):
        names = machine.syscalls.listdir("/proc")
        assert str(syscalls.process.pid) in names

    def test_exited_pids_leave_no_inodes(self, machine):
        """``/proc/<pid>`` inodes are dropped when the process is reaped."""
        sc = machine.syscalls
        procfs = machine.procfs
        before = len(procfs._inodes)
        for i in range(50):
            child = machine.spawn_host_process([f"/usr/bin/short-lived-{i}"])
            pid = child.process.pid
            assert "status" in sc.listdir(f"/proc/{pid}")
            assert "mnt" in sc.listdir(f"/proc/{pid}/ns")
            assert len(procfs._inodes) > before
            child.exit()
        assert len(procfs._inodes) == before


class TestProcSysVm:
    def test_listing_and_defaults(self, machine):
        sc = machine.syscalls
        assert "sys" in sc.listdir("/proc")
        assert sc.listdir("/proc/sys") == ["vm"]
        names = sc.listdir("/proc/sys/vm")
        assert set(names) == {"dirty_background_bytes", "dirty_background_ratio",
                              "dirty_bytes", "dirty_expire_centisecs",
                              "dirty_ratio", "dirty_writeback_centisecs",
                              "vfs_cache_pressure", "drop_caches"}
        # 0 means "per-filesystem defaults in effect"; vfs_cache_pressure
        # reads Linux's default of 100 instead.
        for name in names:
            expected = b"100\n" if name == "vfs_cache_pressure" else b"0\n"
            assert sc.read(sc.open(f"/proc/sys/vm/{name}"), 64) == expected

    def test_write_retunes_mounted_filesystems(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        fd = sc.open("/proc/sys/vm/dirty_bytes", OpenFlags.O_WRONLY)
        sc.write(fd, b"1048576\n")
        sc.close(fd)
        assert sc.read(sc.open("/proc/sys/vm/dirty_bytes"), 64) == b"1048576\n"
        # The rootfs ext4 engine is registered at boot and follows the knob;
        # its background threshold keeps its per-fs default.
        assert machine.rootfs.writeback.tunables.dirty_bytes == 1 << 20
        assert machine.rootfs.writeback.tunables.dirty_background_bytes == 256 << 20

    def test_mounting_registers_engine(self, machine, syscalls):
        from repro.fs.constants import OpenFlags
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        fd = machine.syscalls.open("/proc/sys/vm/dirty_background_bytes",
                                   OpenFlags.O_WRONLY)
        machine.syscalls.write(fd, b"65536\n")
        machine.syscalls.close(fd)
        extra = Ext4Fs("extra", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/extra")
        syscalls.mount(extra, "/mnt/extra")
        # Registration applies the already-written kernel-wide knob.
        assert extra.writeback.tunables.dirty_background_bytes == 65536

    def test_umount_unregisters_engine(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        extra = Ext4Fs("ephemeral", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/ephemeral")
        syscalls.mount(extra, "/mnt/ephemeral")
        assert extra.writeback in kernel.vm.engines()
        syscalls.umount("/mnt/ephemeral")
        assert extra.writeback not in kernel.vm.engines()
        # The rootfs engine (still mounted) is untouched.
        assert machine.rootfs.writeback in kernel.vm.engines()

    def test_unlinked_inode_releases_writeback_state(self, machine, syscalls):
        from repro.fs.constants import OpenFlags

        rootfs = machine.rootfs
        pending_before = len(rootfs.writeback.pending_inodes())
        dirty_before = rootfs.page_cache.dirty_page_count()
        syscalls.makedirs("/var/churn")
        for i in range(20):
            fd = syscalls.open(f"/var/churn/f{i}",
                               OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            syscalls.write(fd, b"x" * 8192)
            syscalls.close(fd)
            syscalls.unlink(f"/var/churn/f{i}")
        # Inode eviction discarded the deleted files' dirty pages and pending
        # bytes: create/delete churn must not grow either map.
        assert len(rootfs.writeback.pending_inodes()) == pending_before
        assert rootfs.page_cache.dirty_page_count() == dirty_before

    def test_invalid_value_rejected(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        for payload in (b"not-a-number", b"-5"):
            fd = sc.open("/proc/sys/vm/dirty_bytes", OpenFlags.O_WRONLY)
            with pytest.raises(FsError):
                sc.write(fd, payload)
            sc.close(fd)

    def test_other_proc_files_stay_read_only(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        with pytest.raises(FsError):
            fd = sc.open("/proc/version", OpenFlags.O_WRONLY)
            sc.write(fd, b"nope")


#: The four synthetic mounts of a booted host, each with one entry it lists.
SYNTHETIC_MOUNTS = {"proc": ("/proc", "uptime"),
                    "bdi": ("/sys/class/bdi", None),    # a device, found live
                    "cgroup2": ("/sys/fs/cgroup", "cgroup.procs"),
                    "tracefs": ("/sys/kernel/debug/tracing", "trace")}
#: The namespace changes, each a call on (syscalls, victim path, new path).
NAMESPACE_CHANGES = {
    "create": lambda sc, old, new: sc.open(new, OpenFlags.O_CREAT | OpenFlags.O_WRONLY),
    "mkdir": lambda sc, old, new: sc.mkdir(new),
    "mknod": lambda sc, old, new: sc.mknod(new, stat.S_IFREG | 0o644),
    "symlink": lambda sc, old, new: sc.symlink("target", new),
    "link": lambda sc, old, new: sc.link(old, new),
    "unlink": lambda sc, old, new: sc.unlink(old),
    "rmdir": lambda sc, old, new: sc.rmdir(old),
    "rename": lambda sc, old, new: sc.rename(old, new),
}


class TestSyntheticFilesystems:
    def test_listed_entries_resolve_and_read_their_size(self, machine):
        """Walk /proc and the three /sys surfaces to depth 3 on a host running
        one container: every listed name resolves to the listed inode, every
        regular file reads exactly its st_size bytes, unlisted names are
        ENOENT."""
        from repro.container import DockerEngine
        from repro.container.image import ImageBuilder

        image = (ImageBuilder("walked", "1.0").add_dir("/usr/sbin")
                 .add_file("/usr/sbin/app", size=4096, mode=0o755)
                 .entrypoint("/usr/sbin/app").build())
        DockerEngine(machine).run(image, name="walked")
        sc = machine.syscalls
        walked = 0

        def walk(path: str, depth: int) -> None:
            nonlocal walked
            with pytest.raises(FsError) as exc:
                sc.lstat(f"{path}/not-listed-here")
            assert exc.value.errno == errno.ENOENT
            for name, ino, ftype in sc.readdir(path):
                if name in (".", ".."):
                    continue
                child = f"{path}/{name}"
                st = sc.lstat(child)
                assert (st.st_ino, stat.S_IFMT(st.st_mode)) == (ino, ftype), child
                walked += 1
                if ftype == stat.S_IFREG:
                    fd = sc.open(child)
                    try:
                        assert len(sc.read(fd, 1 << 20)) == st.st_size, child
                    finally:
                        sc.close(fd)
                elif ftype == stat.S_IFDIR and depth < 3:
                    walk(child, depth + 1)

        for root, _entry in SYNTHETIC_MOUNTS.values():
            walk(root, 1)
        assert walked > 100

    @pytest.mark.parametrize("mount,change", [
        (mount, change) for mount in sorted(SYNTHETIC_MOUNTS)
        for change in sorted(NAMESPACE_CHANGES)
        # cgroupfs creates and removes cgroups with mkdir/rmdir.
        if not (mount == "cgroup2" and change in ("mkdir", "rmdir"))])
    def test_namespace_changes_are_refused(self, machine, mount, change):
        """open(O_CREAT) is EACCES and every other namespace change EPERM, as
        on Linux for an inode without the operation, and the listing stays
        as it was."""
        sc = machine.syscalls
        root, victim = SYNTHETIC_MOUNTS[mount]
        before = sc.listdir(root)
        victim = victim or before[0]
        with pytest.raises(FsError) as exc:
            NAMESPACE_CHANGES[change](sc, f"{root}/{victim}", f"{root}/new-entry")
        assert exc.value.errno == (errno.EACCES if change == "create" else errno.EPERM)
        assert sc.listdir(root) == before


class TestIpcObjects:
    def test_pipe_roundtrip(self):
        read_end, write_end = make_pipe()
        write_end.write(b"through the pipe")
        assert read_end.read(100) == b"through the pipe"

    def test_pipe_eof_after_writer_close(self):
        read_end, write_end = make_pipe()
        write_end.close()
        assert read_end.read(10) == b""

    def test_pipe_epipe_after_reader_close(self):
        read_end, write_end = make_pipe()
        read_end.close()
        with pytest.raises(FsError) as exc:
            write_end.write(b"x")
        assert exc.value.errno == errno.EPIPE

    def test_socketpair_bidirectional(self):
        a, b = make_socketpair()
        a.write(b"ping")
        b.write(b"pong")
        assert b.read(10) == b"ping"
        assert a.read(10) == b"pong"

    def test_pty_master_slave(self):
        master, slave = make_pty(0)
        master.write(b"ls\n")
        assert slave.read(10) == b"ls\n"
        slave.write(b"file1 file2\n")
        assert master.read(100) == b"file1 file2\n"

    def test_unix_socket_via_syscalls(self, machine, syscalls):
        server = machine.spawn_host_process(["/usr/bin/server"])
        server.unix_listen("/run/test.sock")
        client_fd = syscalls.unix_connect("/run/test.sock")
        conn_fd = server.unix_accept(3)          # listener is the first fd (3)
        syscalls.write(client_fd, b"hello server")
        assert server.read(conn_fd, 100) == b"hello server"

    def test_unix_connect_without_listener_refused(self, machine, syscalls):
        with pytest.raises(FsError) as exc:
            syscalls.unix_connect("/run/absent.sock")
        assert exc.value.errno == errno.ENOENT or exc.value.errno == errno.ECONNREFUSED

    def test_epoll_reports_readable_socket(self, machine, syscalls):
        fd_a, fd_b = syscalls.socketpair()
        epfd = syscalls.epoll_create()
        syscalls.epoll_ctl_add(epfd, fd_a, {"in"})
        assert syscalls.epoll_wait(epfd) == []
        syscalls.write(fd_b, b"wake up")
        events = syscalls.epoll_wait(epfd)
        assert events and events[0][0] == fd_a

    def test_splice_between_file_and_socket(self, machine, syscalls):
        fd = syscalls.open("/tmp/splice-src", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        syscalls.write(fd, b"spliced payload")
        syscalls.lseek(fd, 0)
        sock_a, sock_b = syscalls.socketpair()
        moved = syscalls.splice(fd, sock_a, 1 << 16)
        assert moved == len(b"spliced payload")
        assert syscalls.read(sock_b, 100) == b"spliced payload"

    def test_ptrace_allowed_within_same_pid_namespace(self, machine, syscalls):
        target = machine.spawn_host_process(["/usr/bin/app"])
        assert syscalls.ptrace_attach(target.process.pid)

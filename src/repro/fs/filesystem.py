"""Abstract filesystem ("superblock") with inode-level operations.

Concrete filesystems (:class:`repro.fs.tmpfs.TmpFS`,
:class:`repro.fs.ext4.Ext4Fs`, the overlay filesystem used by container
images, and the FUSE client filesystem) subclass this and override the cost
hooks — the *semantics* of the Linux filesystem API live here, once.
"""

from __future__ import annotations

from repro.fs.constants import FileMode, FallocateMode, RenameFlags, NAME_MAX
from repro.fs.errors import FsError
from repro.fs.inode import (
    DeviceInode,
    DirectoryInode,
    FifoInode,
    FileData,
    Inode,
    RegularInode,
    SocketInode,
    SymlinkInode,
)
from repro.fs.locks import LockTable
from repro.fs.stat import StatVfs
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer

ROOT_INO = 1

#: Plain-int copies of the mode bits touched on every create/mkdir; see the
#: matching constants in :mod:`repro.fs.vfs` for why enum arithmetic is
#: avoided on these paths.
_S_IFREG = int(FileMode.S_IFREG)
_S_IFDIR = int(FileMode.S_IFDIR)
_S_ISGID = int(FileMode.S_ISGID)


class Filesystem:
    """Base in-memory filesystem with full Linux API semantics."""

    fs_type = "genericfs"
    #: Whether open(O_DIRECT) is honoured (the FUSE client reports False,
    #: reproducing xfstests failure #391).
    supports_direct_io = True
    #: Whether inodes can be re-opened by handle (``open_by_handle_at``);
    #: the FUSE client reports False, reproducing xfstests failure #426.
    supports_export_handles = True
    #: Whether the filesystem interprets POSIX ACLs during chmod; the FUSE
    #: client delegates ACLs to the backing store, reproducing failure #375.
    interprets_acls_on_chmod = True
    #: Whether VFS path resolution may cache this filesystem's dentries.
    #: Synthetic filesystems whose namespace changes without going through the
    #: name-mutating API (procfs) opt out.
    dcacheable = True

    def __init__(self, name: str, clock: VirtualClock, costs: CostModel,
                 tracer: Tracer | None = None, capacity_bytes: int = 64 << 30,
                 max_inodes: int = 1 << 20) -> None:
        self.name = name
        self.fs_id = clock.next_id("fs")
        self.clock = clock
        self.costs = costs
        self.tracer = tracer or Tracer(enabled=False)
        self.capacity_bytes = capacity_bytes
        self.max_inodes = max_inodes
        self.read_only = False
        #: When False, regular-file writes track sizes but do not keep bytes
        #: (used by the performance benchmarks to avoid real memory usage).
        self.store_data = True
        self._inodes: dict[int, Inode] = {}
        self._locks: dict[int, LockTable] = {}
        self._pins: dict[int, int] = {}
        self._next_ino = ROOT_INO
        root = DirectoryInode(ino=self._alloc_ino(), mode=FileMode.S_IFDIR | 0o755,
                              nlink=2, fs_name=self.name)
        self._inodes[root.ino] = root
        self.root_ino = root.ino
        #: Bumped whenever an existing name binding is removed or rebound;
        #: the VFS dentry cache treats entries from older generations as
        #: stale.  Adding brand-new names does not bump it (positive entries
        #: cannot go stale from a pure addition, and negatives are not cached).
        self.dentry_gen = 0

    def invalidate_dentries(self) -> None:
        """Invalidate every VFS dentry-cache entry pointing into this filesystem."""
        self.dentry_gen += 1

    # ------------------------------------------------------------ crash model
    def crash(self) -> None:
        """Power-fail this filesystem: discard every piece of volatile state.

        The base implementation models a *kernel-regenerated* filesystem
        (procfs, sysfs, devfs, ...): nothing it shows is backed by caches, so
        only the transient per-boot state — advisory locks, open-file pins
        and cached dentries — is dropped.  Filesystems whose contents live in
        RAM (tmpfs) or behind a page cache and journal (ext4, the FUSE
        client) override this with their own loss semantics.
        """
        self._locks.clear()
        self._pins.clear()
        self.invalidate_dentries()

    def remount(self) -> None:
        """Bring the filesystem back after :meth:`crash` (power restored).

        The base implementation has nothing to replay; durable filesystems
        override this to rebuild their live tree from the journal.
        """
        self.invalidate_dentries()

    def drop_caches(self, mode: int = 3) -> None:
        """Apply ``echo mode > /proc/sys/vm/drop_caches`` to this filesystem.

        Mode bits follow Linux: 1 drops the page cache, 2 drops dentries and
        inode caches, 3 both.  The base filesystem keeps no page cache, so
        only the dentry half applies; filesystems with caches override this
        (and, matching the long-standing behaviour of the experiments' direct
        ``drop_caches()`` calls, flush dirty data before invalidating — the
        ``sync; echo 3 > drop_caches`` idiom in one step).
        """
        if mode & 2:
            self.invalidate_dentries()

    def charge_lookup_hit(self, dir_ino: int, name: str, ino: int) -> None:
        """Charge the virtual cost of a VFS dentry-cache hit on ``name``.

        Deliberately identical to what this filesystem's own warm ``lookup``
        path charges, so resolving through the dcache never shifts simulated
        results — the dcache removes interpreter work (wall-clock), not
        modelled kernel work (virtual time).  Filesystems whose warm path has
        extra preconditions (the FUSE client's attribute freshness) override
        this to revalidate when those do not hold.
        """
        self._charge_metadata("lookup")

    # ------------------------------------------------------------------ hooks
    def _charge_metadata(self, op: str) -> None:
        """Charge the virtual-time cost of one metadata operation."""
        self.clock.advance(self.costs.tmpfs_op_ns)
        if self.tracer.active:
            self.tracer.emit(self.clock.now_ns, f"{self.fs_type}.{op}",
                             self.costs.tmpfs_op_ns)

    def _charge_read(self, ino: int, offset: int, size: int) -> None:
        """Charge the cost of reading ``size`` bytes."""
        cost = int(self.costs.tmpfs_per_byte_ns * size + self.costs.tmpfs_op_ns)
        self.clock.advance(cost)
        if self.tracer.active:
            self.tracer.emit(self.clock.now_ns, f"{self.fs_type}.read", cost)

    def _charge_write(self, ino: int, offset: int, size: int) -> None:
        """Charge the cost of writing ``size`` bytes."""
        cost = int(self.costs.tmpfs_per_byte_ns * size + self.costs.tmpfs_op_ns)
        self.clock.advance(cost)
        if self.tracer.active:
            self.tracer.emit(self.clock.now_ns, f"{self.fs_type}.write", cost)

    def _charge_fsync(self, ino: int, datasync: bool) -> None:
        """Charge the cost of persisting ``ino``."""
        self._charge_metadata("fsync")

    # -------------------------------------------------------------- inode mgmt
    def _alloc_ino(self) -> int:
        if len(self._inodes) >= self.max_inodes:
            raise FsError.enospc(self.name)
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _now(self) -> int:
        return self.clock.now_ns

    def iget(self, ino: int) -> Inode:
        """Fetch an inode by number."""
        try:
            return self._inodes[ino]
        except KeyError:
            raise FsError.estale(f"ino {ino}") from None

    def root(self) -> DirectoryInode:
        """The root directory inode."""
        root = self.iget(self.root_ino)
        assert isinstance(root, DirectoryInode)
        return root

    def used_bytes(self) -> int:
        """Approximate bytes of file data stored."""
        return sum(i.size for i in self._inodes.values() if isinstance(i, RegularInode))

    def locks(self, ino: int) -> LockTable:
        """The advisory lock table for ``ino``."""
        return self._locks.setdefault(ino, LockTable())

    def _require_dir(self, ino: int) -> DirectoryInode:
        inode = self.iget(ino)
        if not isinstance(inode, DirectoryInode):
            raise FsError.enotdir(str(ino))
        return inode

    def _require_writable(self) -> None:
        if self.read_only:
            raise FsError.erofs(self.name)

    def _new_inode(self, cls, mode: int, uid: int, gid: int, **kwargs) -> Inode:
        now = self._now()
        inode = cls(ino=self._alloc_ino(), mode=mode, uid=uid, gid=gid,
                    atime_ns=now, mtime_ns=now, ctime_ns=now,
                    fs_name=self.name, **kwargs)
        self._inodes[inode.ino] = inode
        return inode

    # -------------------------------------------------------------- directory ops
    def lookup(self, dir_ino: int, name: str) -> Inode:
        """Look ``name`` up in the directory ``dir_ino``."""
        self._charge_metadata("lookup")
        directory = self._require_dir(dir_ino)
        return self.iget(directory.lookup(name))

    def create(self, dir_ino: int, name: str, mode: int, uid: int = 0,
               gid: int = 0) -> RegularInode:
        """Create a regular file."""
        self._require_writable()
        self._charge_metadata("create")
        directory = self._require_dir(dir_ino)
        inode = self._new_inode(RegularInode, _S_IFREG | (int(mode) & 0o7777), uid, gid,
                                data=FileData(store=self.store_data))
        # Inherit setgid group semantics from the parent directory.
        if directory.mode & _S_ISGID:
            inode.gid = directory.gid
        directory.add(name, inode.ino)
        directory.touch(self._now(), mtime=True, ctime=True)
        return inode

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int = 0,
              gid: int = 0) -> DirectoryInode:
        """Create a directory."""
        self._require_writable()
        self._charge_metadata("mkdir")
        directory = self._require_dir(dir_ino)
        inode = self._new_inode(DirectoryInode, _S_IFDIR | (int(mode) & 0o7777), uid, gid)
        inode.nlink = 2
        inode.parent_ino = directory.ino
        if directory.mode & _S_ISGID:
            inode.gid = directory.gid
            inode.mode |= _S_ISGID
        directory.add(name, inode.ino)
        directory.nlink += 1
        directory.touch(self._now(), mtime=True, ctime=True)
        return inode

    def symlink(self, dir_ino: int, name: str, target: str, uid: int = 0,
                gid: int = 0) -> SymlinkInode:
        """Create a symbolic link to ``target``."""
        self._require_writable()
        self._charge_metadata("symlink")
        directory = self._require_dir(dir_ino)
        inode = self._new_inode(SymlinkInode, FileMode.S_IFLNK | 0o777, uid, gid,
                                target=target)
        directory.add(name, inode.ino)
        directory.touch(self._now(), mtime=True, ctime=True)
        return inode

    def mknod(self, dir_ino: int, name: str, mode: int, rdev: int = 0,
              uid: int = 0, gid: int = 0) -> Inode:
        """Create a device node, FIFO or socket inode."""
        self._require_writable()
        self._charge_metadata("mknod")
        directory = self._require_dir(dir_ino)
        ftype = mode & FileMode.S_IFMT
        if ftype in (FileMode.S_IFBLK, FileMode.S_IFCHR):
            inode = self._new_inode(DeviceInode, mode, uid, gid)
            inode.rdev = rdev
        elif ftype == FileMode.S_IFIFO:
            inode = self._new_inode(FifoInode, mode, uid, gid)
        elif ftype == FileMode.S_IFSOCK:
            inode = self._new_inode(SocketInode, mode, uid, gid)
        elif ftype == FileMode.S_IFREG or ftype == 0:
            inode = self._new_inode(RegularInode, FileMode.S_IFREG | (mode & 0o7777),
                                    uid, gid, data=FileData(store=self.store_data))
        else:
            raise FsError.einval(f"unsupported mknod type {oct(ftype)}")
        directory.add(name, inode.ino)
        directory.touch(self._now(), mtime=True, ctime=True)
        return inode

    def link(self, dir_ino: int, name: str, target_ino: int) -> Inode:
        """Create a hard link to ``target_ino``."""
        self._require_writable()
        self._charge_metadata("link")
        directory = self._require_dir(dir_ino)
        target = self.iget(target_ino)
        if target.is_dir:
            raise FsError.eperm(name)
        directory.add(name, target.ino)
        target.nlink += 1
        target.ctime_ns = self._now()
        directory.touch(self._now(), mtime=True, ctime=True)
        return target

    def unlink(self, dir_ino: int, name: str) -> None:
        """Remove a non-directory entry."""
        self._require_writable()
        self._charge_metadata("unlink")
        directory = self._require_dir(dir_ino)
        ino = directory.lookup(name)
        inode = self.iget(ino)
        if inode.is_dir:
            raise FsError.eisdir(name)
        directory.remove(name)
        self.invalidate_dentries()
        inode.nlink -= 1
        inode.ctime_ns = self._now()
        directory.touch(self._now(), mtime=True, ctime=True)
        if inode.nlink <= 0:
            self._drop_inode(inode)

    def rmdir(self, dir_ino: int, name: str) -> None:
        """Remove an empty directory."""
        self._require_writable()
        self._charge_metadata("rmdir")
        directory = self._require_dir(dir_ino)
        ino = directory.lookup(name)
        inode = self.iget(ino)
        if not inode.is_dir:
            raise FsError.enotdir(name)
        assert isinstance(inode, DirectoryInode)
        if not inode.is_empty():
            raise FsError.enotempty(name)
        directory.remove(name)
        self.invalidate_dentries()
        directory.nlink -= 1
        directory.touch(self._now(), mtime=True, ctime=True)
        inode.nlink = 0
        self._drop_inode(inode)

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str,
               flags: int = 0) -> None:
        """Rename/move an entry, honouring ``RENAME_NOREPLACE``/``RENAME_EXCHANGE``.

        The dentry invalidation happens after the name rebinding succeeds
        (every failure path raises before the first mutation), so failed
        renames do not wipe the dentry cache.
        """
        self._require_writable()
        self._charge_metadata("rename")
        src_dir = self._require_dir(old_dir)
        dst_dir = self._require_dir(new_dir)
        src_ino = src_dir.lookup(old_name)
        src_inode = self.iget(src_ino)
        dst_exists = new_name in dst_dir.entries
        if flags & RenameFlags.RENAME_NOREPLACE and dst_exists:
            raise FsError.eexist(new_name)
        if flags & RenameFlags.RENAME_EXCHANGE:
            if not dst_exists:
                raise FsError.enoent(new_name)
            dst_ino = dst_dir.entries[new_name]
            src_dir.replace(old_name, dst_ino)
            dst_dir.replace(new_name, src_ino)
            self.invalidate_dentries()
            now = self._now()
            src_dir.touch(now, mtime=True, ctime=True)
            dst_dir.touch(now, mtime=True, ctime=True)
            return
        if dst_exists:
            dst_ino = dst_dir.entries[new_name]
            dst_inode = self.iget(dst_ino)
            if dst_inode.is_dir:
                assert isinstance(dst_inode, DirectoryInode)
                if not src_inode.is_dir:
                    raise FsError.eisdir(new_name)
                if not dst_inode.is_empty():
                    raise FsError.enotempty(new_name)
                dst_dir.remove(new_name)
                dst_dir.nlink -= 1
                dst_inode.nlink = 0
                self._drop_inode(dst_inode)
            else:
                if src_inode.is_dir:
                    raise FsError.enotdir(new_name)
                dst_dir.remove(new_name)
                dst_inode.nlink -= 1
                if dst_inode.nlink <= 0:
                    self._drop_inode(dst_inode)
        src_dir.remove(old_name)
        dst_dir.replace(new_name, src_ino)
        self.invalidate_dentries()
        if src_inode.is_dir and src_dir is not dst_dir:
            src_dir.nlink -= 1
            dst_dir.nlink += 1
            assert isinstance(src_inode, DirectoryInode)
            src_inode.parent_ino = dst_dir.ino
        now = self._now()
        src_inode.ctime_ns = now
        src_dir.touch(now, mtime=True, ctime=True)
        dst_dir.touch(now, mtime=True, ctime=True)

    def readdir(self, dir_ino: int) -> list[tuple[str, int, int]]:
        """List a directory: ``(name, ino, file_type_bits)`` tuples including dot entries."""
        self._charge_metadata("readdir")
        directory = self._require_dir(dir_ino)
        out = [(".", directory.ino, int(FileMode.S_IFDIR)),
               ("..", directory.ino, int(FileMode.S_IFDIR))]
        for name, ino in directory.entries.items():
            inode = self.iget(ino)
            out.append((name, ino, inode.file_type))
        directory.touch(self._now(), atime=True)
        return out

    def readlink(self, ino: int) -> str:
        """Read a symlink target."""
        self._charge_metadata("readlink")
        inode = self.iget(ino)
        if not isinstance(inode, SymlinkInode):
            raise FsError.einval(f"ino {ino} is not a symlink")
        return inode.target

    # -------------------------------------------------------------- data ops
    def read(self, ino: int, offset: int, size: int) -> bytes:
        """Read file data."""
        inode = self.iget(ino)
        if isinstance(inode, DirectoryInode):
            raise FsError.eisdir(str(ino))
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"ino {ino} has no data")
        data = inode.data.read(offset, size)
        self._charge_read(ino, offset, len(data))
        inode.touch(self._now(), atime=True)
        return data

    def write(self, ino: int, offset: int, data: bytes) -> int:
        """Write file data."""
        self._require_writable()
        inode = self.iget(ino)
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"ino {ino} has no data")
        if offset + len(data) > self.capacity_bytes:
            raise FsError.enospc(self.name)
        written = inode.data.write(offset, data)
        self._charge_write(ino, offset, written)
        now = self._now()
        inode.touch(now, mtime=True, ctime=True)
        # POSIX: writing by a non-owner clears setuid/setgid; the VFS decides
        # *whether* to clear, the fs records the resulting mode via setattr.
        return written

    def truncate(self, ino: int, size: int) -> None:
        """Truncate or extend a file."""
        self._require_writable()
        self._charge_metadata("truncate")
        inode = self.iget(ino)
        if isinstance(inode, DirectoryInode):
            raise FsError.eisdir(str(ino))
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"ino {ino} has no data")
        inode.data.truncate(size)
        inode.touch(self._now(), mtime=True, ctime=True)

    def fallocate(self, ino: int, mode: int, offset: int, length: int) -> None:
        """Preallocate or punch a hole in a file."""
        self._require_writable()
        self._charge_metadata("fallocate")
        inode = self.iget(ino)
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"ino {ino} has no data")
        if mode & FallocateMode.PUNCH_HOLE or mode & FallocateMode.ZERO_RANGE:
            inode.data.punch_hole(offset, length)
        else:
            end = offset + length
            if end > len(inode.data) and not (mode & FallocateMode.KEEP_SIZE):
                inode.data.truncate(end)
        inode.touch(self._now(), mtime=True, ctime=True)

    def fsync(self, ino: int, datasync: bool = False) -> None:
        """Flush a file's data (and metadata unless ``datasync``) to stable storage."""
        self.iget(ino)
        self._charge_fsync(ino, datasync)

    def sync(self) -> None:
        """Flush the whole filesystem."""
        self._charge_metadata("sync")

    # -------------------------------------------------------------- attr ops
    def getattr(self, ino: int):
        """Return a :class:`repro.fs.stat.FileStat` for ``ino``."""
        self._charge_metadata("getattr")
        inode = self.iget(ino)
        return inode.stat(st_dev=self.fs_id)

    def setattr(self, ino: int, *, mode: int | None = None, uid: int | None = None,
                gid: int | None = None, size: int | None = None,
                atime_ns: int | None = None, mtime_ns: int | None = None) -> None:
        """Apply a combination of chmod/chown/truncate/utimens changes."""
        self._require_writable()
        self._charge_metadata("setattr")
        inode = self.iget(ino)
        now = self._now()
        if mode is not None:
            inode.chmod(mode, now)
        if uid is not None or gid is not None:
            inode.chown(uid if uid is not None else -1,
                        gid if gid is not None else -1, now)
        if size is not None:
            if not isinstance(inode, RegularInode):
                raise FsError.einval(f"ino {ino} has no data")
            inode.data.truncate(size)
            inode.touch(now, mtime=True, ctime=True)
        if atime_ns is not None:
            inode.atime_ns = atime_ns
        if mtime_ns is not None:
            inode.mtime_ns = mtime_ns

    # -------------------------------------------------------------- xattr ops
    def setxattr(self, ino: int, name: str, value: bytes, flags: int = 0) -> None:
        """Set an extended attribute."""
        self._require_writable()
        self._charge_metadata("setxattr")
        self.iget(ino).set_xattr(name, value, flags)

    def getxattr(self, ino: int, name: str) -> bytes:
        """Get an extended attribute."""
        self._charge_metadata("getxattr")
        return self.iget(ino).get_xattr(name)

    def listxattr(self, ino: int) -> list[str]:
        """List extended attribute names."""
        self._charge_metadata("listxattr")
        return self.iget(ino).list_xattrs()

    def removexattr(self, ino: int, name: str) -> None:
        """Remove an extended attribute."""
        self._require_writable()
        self._charge_metadata("removexattr")
        self.iget(ino).remove_xattr(name)

    # -------------------------------------------------------------- misc
    def statfs(self) -> StatVfs:
        """Filesystem statistics."""
        bsize = self.costs.page_size
        blocks = self.capacity_bytes // bsize
        used = self.used_bytes() // bsize
        return StatVfs(
            f_bsize=bsize,
            f_blocks=blocks,
            f_bfree=max(0, blocks - used),
            f_bavail=max(0, blocks - used),
            f_files=self.max_inodes,
            f_ffree=max(0, self.max_inodes - len(self._inodes)),
            f_namemax=NAME_MAX,
        )

    def pin(self, ino: int) -> None:
        """Keep an inode alive while it is open, even if it becomes unlinked."""
        self._pins[ino] = self._pins.get(ino, 0) + 1

    def unpin(self, ino: int) -> None:
        """Drop one pin; the inode is released once unpinned and unlinked."""
        count = self._pins.get(ino, 0) - 1
        if count <= 0:
            self._pins.pop(ino, None)
            inode = self._inodes.get(ino)
            if inode is not None and inode.nlink <= 0:
                self._inodes.pop(ino, None)
                self._locks.pop(ino, None)
                self._inode_released(ino)
        else:
            self._pins[ino] = count

    def _drop_inode(self, inode: Inode) -> None:
        """Release a dead inode unless an open file description still pins it."""
        if self._pins.get(inode.ino, 0) > 0:
            return
        self._inodes.pop(inode.ino, None)
        self._locks.pop(inode.ino, None)
        self._inode_released(inode.ino)

    def _inode_released(self, ino: int) -> None:
        """Hook: the inode is gone (unlinked and unpinned).  Filesystems with
        caches or writeback state drop the dead inode's entries here, as the
        kernel's inode eviction discards an unlinked file's dirty pages
        instead of writing them back."""

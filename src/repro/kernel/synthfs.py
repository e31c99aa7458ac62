"""The shared base of the kernel-generated filesystems: ``/proc`` and the
``/sys`` surfaces (:mod:`repro.kernel.procfs`, :mod:`repro.kernel.sysfs`).

A synthetic filesystem stores nothing.  Each inode stands for an
:class:`Entry` — what it shows — and every read renders that entry afresh
from live kernel state.  An entry is interned on first sight, so it keeps one
inode number for as long as the filesystem lives (or until :meth:`forget`
drops the kernel object it shows).

A subclass describes its tree once:

* ``modes`` maps every entry kind to its inode mode (file type and
  permission bits; a regular file is writable iff its mode has ``0o200``);
* ``tree`` maps a directory kind to its fixed children, name -> kind, in
  listing order; a child shows the same kernel object as its parent;
* :meth:`_dynamic_child` finds a child that follows a kernel object
  (process, device, cgroup) by a direct dispatch on its name — never by
  listing the siblings, since ``/proc`` lists every pid — and
  :meth:`_dynamic_children` lists those children after the fixed ones.

It then supplies ``_generate(entry)`` (a file's content as bytes),
``_store(entry, text)`` (a write to a writable file) and, if it has symlinks,
``_link_target(entry)``.  Lookup, readdir, read, getattr, the write and
truncate guards, and the refusal of every namespace change are written here
once.  The namespace belongs to the kernel: ``open(O_CREAT)`` is EACCES, as
Linux's open path answers for a directory without ``->create``, and
``mkdir``/``mknod``/``symlink``/``link``/``unlink``/``rmdir``/``rename`` are
EPERM, as the ``vfs_*`` helpers answer for an inode without the operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.fs.constants import FileMode
from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import DirectoryInode, Inode, RegularInode, SymlinkInode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

S_IFDIR = int(FileMode.S_IFDIR)
S_IFREG = int(FileMode.S_IFREG)
S_IFLNK = int(FileMode.S_IFLNK)
_S_IFMT = int(FileMode.S_IFMT)


class Entry(NamedTuple):
    """What a synthetic inode stands for."""

    kind: str          # a key of the filesystem's ``modes``
    owner: object      # the kernel object shown: pid, device, cgroup path, None
    name: str


class SyntheticFS(Filesystem):
    """A read-mostly filesystem generated from kernel state."""

    supports_direct_io = False
    supports_export_handles = False
    #: Entries appear and disappear with kernel objects, without any
    #: name-mutating filesystem call the dentry generation could track —
    #: never dcache them.
    dcacheable = False
    #: Entry kind -> inode mode.
    modes: dict[str, int] = {}
    #: Directory kind -> its fixed children (name -> kind), in listing order.
    tree: dict[str, dict[str, str]] = {}

    def __init__(self, name: str, kernel: "Kernel", root: Entry) -> None:
        super().__init__(name, kernel.clock, kernel.costs, kernel.tracer,
                         capacity_bytes=0)
        self.kernel = kernel
        self._entries: dict[int, Entry] = {self.root_ino: root}
        self._inos: dict[Entry, int] = {}
        #: owner -> its interned entries, so :meth:`forget` costs nothing
        #: for an object that was never looked up.
        self._owned: dict[object, list[Entry]] = {}

    # ------------------------------------------------------------- the tree
    def _dynamic_child(self, parent: Entry, name: str) -> Entry | None:
        """The child ``name`` of ``parent`` that follows a kernel object."""
        return None

    def _dynamic_children(self, parent: Entry) -> Iterable[Entry]:
        """The children of ``parent`` that follow kernel objects, in order."""
        return ()

    def _revalidate(self, entry: Entry) -> None:
        """Raise ENOENT when the kernel object ``entry`` shows is gone."""

    def _truncated(self, entry: Entry) -> None:
        """``O_TRUNC`` on the writable file ``entry``: changes nothing here."""

    # ------------------------------------------------------------- plumbing
    def _synthetic_inode(self, entry: Entry) -> Inode:
        """The inode standing for ``entry``, allocated on first sight."""
        ino = self._inos.get(entry)
        if ino is not None:
            return self._inodes[ino]
        mode = self.modes[entry.kind]
        ino = self._alloc_ino()
        if mode & _S_IFMT == S_IFDIR:
            inode: Inode = DirectoryInode(ino=ino, mode=mode)
        elif mode & _S_IFMT == S_IFLNK:
            inode = SymlinkInode(ino=ino, mode=mode, target=self._link_target(entry))
        else:
            inode = RegularInode(ino=ino, mode=mode)
        inode.fs_name = self.name
        self._inodes[ino] = inode
        self._entries[ino] = entry
        self._inos[entry] = ino
        self._owned.setdefault(entry.owner, []).append(entry)
        return inode

    def forget(self, owner: object) -> None:
        """Drop the inodes of every entry showing ``owner``, a removed object."""
        for entry in self._owned.pop(owner, ()):
            ino = self._inos.pop(entry)
            self._inodes.pop(ino, None)
            self._entries.pop(ino, None)

    def entry_of(self, ino: int) -> Entry:
        """The synthetic entry behind an inode number."""
        entry = self._entries.get(ino)
        if entry is None:
            raise FsError.estale(f"{self.fs_type} ino {ino}")
        return entry

    def _directory(self, ino: int) -> Entry:
        entry = self.entry_of(ino)
        if self.modes[entry.kind] & _S_IFMT != S_IFDIR:
            raise FsError.enotdir(entry.name)
        self._revalidate(entry)
        return entry

    def _writable(self, ino: int) -> Entry:
        entry = self._entries.get(ino)
        if entry is None or \
                self.modes[entry.kind] & (_S_IFMT | 0o200) != S_IFREG | 0o200:
            raise FsError.eacces(f"{self.fs_type}: not a writable file")
        return entry

    # ------------------------------------------------------------- fs interface
    def lookup(self, dir_ino: int, name: str) -> Inode:
        self._charge_metadata("lookup")
        parent = self._directory(dir_ino)
        kind = self.tree.get(parent.kind, {}).get(name)
        child = Entry(kind, parent.owner, name) if kind is not None \
            else self._dynamic_child(parent, name)
        if child is None:
            raise FsError.enoent(name)
        return self._synthetic_inode(child)

    def readdir(self, dir_ino: int) -> list[tuple[str, int, int]]:
        self._charge_metadata("readdir")
        parent = self._directory(dir_ino)
        fixed = [Entry(kind, parent.owner, name)
                 for name, kind in self.tree.get(parent.kind, {}).items()]
        out = [(".", dir_ino, S_IFDIR), ("..", dir_ino, S_IFDIR)]
        for entry in [*fixed, *self._dynamic_children(parent)]:
            inode = self._synthetic_inode(entry)
            out.append((entry.name, inode.ino, inode.file_type))
        return out

    def read(self, ino: int, offset: int, size: int) -> bytes:
        entry = self.entry_of(ino)
        if self.modes[entry.kind] & _S_IFMT != S_IFREG:
            raise FsError.eisdir(entry.name)
        content = self._generate(entry)
        self._charge_read(ino, offset, min(size, len(content)))
        return content[offset:offset + size]

    def getattr(self, ino: int):
        self._charge_metadata("getattr")
        inode = self.iget(ino)
        entry = self._entries[ino]
        self._revalidate(entry)
        if isinstance(inode, RegularInode):
            content = self._generate(entry)
            inode.data.truncate(0)
            inode.data.write(0, content)
        return inode.stat(st_dev=self.fs_id)

    def write(self, ino: int, offset: int, data: bytes) -> int:
        entry = self._writable(ino)
        self._charge_metadata("sysctl")
        self._store(entry, data.decode("ascii", errors="replace").strip())
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        self._truncated(self._writable(ino))

    # ------------------------------------------------------------- the namespace
    def create(self, dir_ino: int, name: str, mode: int, uid: int = 0, gid: int = 0):
        raise FsError.eacces(f"{self.fs_type}: cannot create {name}")

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int = 0, gid: int = 0):
        raise FsError.eperm(f"{self.fs_type}: mkdir {name}")

    def mknod(self, dir_ino: int, name: str, mode: int, rdev: int = 0,
              uid: int = 0, gid: int = 0):
        raise FsError.eperm(f"{self.fs_type}: mknod {name}")

    def symlink(self, dir_ino: int, name: str, target: str, uid: int = 0, gid: int = 0):
        raise FsError.eperm(f"{self.fs_type}: symlink {name}")

    def link(self, dir_ino: int, name: str, target_ino: int):
        raise FsError.eperm(f"{self.fs_type}: link {name}")

    def unlink(self, dir_ino: int, name: str) -> None:
        raise FsError.eperm(f"{self.fs_type}: unlink {name}")

    def rmdir(self, dir_ino: int, name: str) -> None:
        raise FsError.eperm(f"{self.fs_type}: rmdir {name}")

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str,
               flags: int = 0) -> None:
        raise FsError.eperm(f"{self.fs_type}: rename {old_name}")

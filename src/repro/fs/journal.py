"""Ordered-mode journal model for the ext4 filesystem (crash consistency).

``Ext4Fs`` has always *charged* ``journal_commit_ns`` for journal commits;
this module gives that cost model real state to protect.  The journal keeps
three things:

* a **running transaction** — logical records of every metadata mutation
  (create/link/unlink/rmdir/rename/setattr/xattr) since the last commit, plus
  a coalesced map of in-flight i_size updates (last write wins, like the
  single in-core inode the kernel logs);
* a **durable image** — the metadata tree as of the last committed
  transaction: for every inode its type, attributes, link count, directory
  entries and *committed size*;
* **durable data** — per-inode :class:`repro.fs.inode.FileData` clones
  captured whenever the writeback engine flushes that inode's pages (ordered
  mode: data reaches the platter through writeback, independently of the
  metadata commit).

Commit points are ``fsync``/``fdatasync``/``sync`` — as in ext4, any commit
publishes the *whole* compound running transaction, not just the syncing
file's records.  A power failure (:meth:`Ext4Fs.crash`) discards the running
transaction; :meth:`Ext4Fs.remount` replays the durable image back into live
inodes.  Post-crash file content is the durable data clipped (or zero-
extended) to the committed size: a committed size beyond what writeback
flushed reads as zeros, which is delayed allocation's crash behaviour —
never another file's stale bytes.

Content-changing metadata operations (``truncate``, ``punch_hole``) are
logged as **ordered per-inode data ops**: at commit they are replayed onto
the inode's durable clone, so a committed truncate-down-then-up reads back
zeros (never the stale pre-truncate bytes) and a committed hole stays
punched.  A writeback capture clears the inode's pending data ops — the
fresh clone already reflects them — which keeps stale records from clipping
newer flushed content.

Everything in this module is pure bookkeeping: no method advances the
virtual clock, so clean-path workloads (and the pinned benchmark figures)
are byte-identical with the journal present.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: Inode-kind tags used by journal records and the durable image.
_KIND_BY_CLASS = {
    RegularInode: "file",
    DirectoryInode: "dir",
    SymlinkInode: "symlink",
    DeviceInode: "device",
    FifoInode: "fifo",
    SocketInode: "socket",
}

_CLASS_BY_KIND = {kind: cls for cls, kind in _KIND_BY_CLASS.items()}


def inode_kind(inode: Inode) -> str:
    """The journal's kind tag for a live inode."""
    return _KIND_BY_CLASS[type(inode)]


@dataclass(slots=True)
class JournalRecord:
    """One logical metadata mutation in the running transaction."""

    op: str
    fields: dict


@dataclass
class JournalStats:
    """Commit/replay accounting (tests and reports read this)."""

    commits: int = 0
    records_committed: int = 0
    records_discarded: int = 0     # records lost to a crash
    checkpoints: int = 0
    replays: int = 0
    data_captures: int = 0


class DurableInode:
    """One inode of the durable (committed) metadata image."""

    __slots__ = ("kind", "mode", "uid", "gid", "nlink", "rdev", "atime_ns",
                 "mtime_ns", "ctime_ns", "xattrs", "size", "entries",
                 "parent_ino", "target")

    def __init__(self, kind: str, mode: int, uid: int, gid: int, nlink: int,
                 rdev: int = 0, atime_ns: int = 0, mtime_ns: int = 0,
                 ctime_ns: int = 0, xattrs: dict | None = None, size: int = 0,
                 entries: dict | None = None, parent_ino: int | None = None,
                 target: str = "") -> None:
        self.kind = kind
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.nlink = nlink
        self.rdev = rdev
        self.atime_ns = atime_ns
        self.mtime_ns = mtime_ns
        self.ctime_ns = ctime_ns
        self.xattrs = dict(xattrs or {})
        self.size = size
        self.entries = dict(entries) if entries is not None else None
        self.parent_ino = parent_ino
        self.target = target

    @classmethod
    def from_live(cls, inode: Inode) -> "DurableInode":
        """Snapshot a live inode's metadata (checkpoint path)."""
        return cls(kind=inode_kind(inode), mode=inode.mode, uid=inode.uid,
                   gid=inode.gid, nlink=inode.nlink, rdev=inode.rdev,
                   atime_ns=inode.atime_ns, mtime_ns=inode.mtime_ns,
                   ctime_ns=inode.ctime_ns, xattrs=inode.xattrs,
                   size=inode.size if isinstance(inode, RegularInode) else 0,
                   entries=getattr(inode, "entries", None),
                   parent_ino=getattr(inode, "parent_ino", None),
                   target=getattr(inode, "target", ""))


class Ext4Journal:
    """The transaction log plus the durable image it maintains."""

    def __init__(self) -> None:
        self.stats = JournalStats()
        #: ino -> DurableInode: the committed metadata tree.
        self._image: dict[int, DurableInode] = {}
        #: ino -> FileData clone: data that reached the device via writeback.
        self._data: dict[int, FileData] = {}
        #: Namespace/attr records of the running transaction, in order.
        self._running: list[JournalRecord] = []
        #: Coalesced in-flight i_size updates (last wins), applied at commit
        #: after the namespace records.  Kept as a dict so a fsync-free
        #: streaming workload does not grow the log per write.
        self._running_sizes: dict[int, int] = {}
        #: ino -> ordered content-changing ops (truncate/punch) logged since
        #: that inode's last data capture; replayed onto the durable clone at
        #: commit.  A capture clears them: the fresh clone already has them.
        self._running_dataops: dict[int, list[tuple[str, int, int]]] = {}
        #: Committed transactions since the last checkpoint (replay work).
        self.uncheckpointed_txns = 0

    # ------------------------------------------------------------- inspection
    def running_record_count(self) -> int:
        """Records in the running (uncommitted) transaction."""
        return (len(self._running) + len(self._running_sizes) +
                sum(len(ops) for ops in self._running_dataops.values()))

    # ------------------------------------------------------------- recording
    def record(self, op: str, **fields) -> None:
        """Append one metadata record to the running transaction."""
        self._running.append(JournalRecord(op, fields))

    def record_size(self, ino: int, size: int) -> None:
        """Record an i_size update (coalesced: the last update wins)."""
        self._running_sizes[ino] = size

    def record_truncate(self, ino: int, size: int) -> None:
        """Record a truncate: the committed clone must clip *and* zero-fill.

        Ordered with respect to other data ops on the inode, so a committed
        down-then-up sequence reads back zeros in the middle instead of
        resurrecting stale pre-truncate bytes.
        """
        self._running_dataops.setdefault(ino, []).append(("truncate", size, 0))
        self._running_sizes[ino] = size

    def record_punch(self, ino: int, offset: int, length: int) -> None:
        """Record a hole punch: the committed clone loses the extent."""
        self._running_dataops.setdefault(ino, []).append(("punch", offset, length))

    def capture_data(self, ino: int, data: FileData) -> None:
        """Adopt a data clone as the durable content of ``ino`` (writeback)."""
        self._data[ino] = data
        # The live content this clone was taken from already reflects every
        # logged truncate/punch; replaying them at commit would clip newer
        # flushed bytes, so the inode's pending data ops are absorbed here.
        self._running_dataops.pop(ino, None)
        self.stats.data_captures += 1

    # ------------------------------------------------------------- txn control
    def commit(self) -> int:
        """Publish the running transaction into the durable image.

        Returns the number of records committed.  Pure bookkeeping — the
        caller (``Ext4Fs``) charges ``journal_commit_ns`` exactly where it
        always has.
        """
        committed = self.running_record_count()
        for rec in self._running:
            self._apply(rec)
        self._running.clear()
        for ino, ops in self._running_dataops.items():
            clone = self._data.get(ino)
            if clone is None:
                continue
            for op, a, b in ops:
                if op == "truncate":
                    clone.truncate(a)
                else:
                    clone.punch_hole(a, b)
        self._running_dataops.clear()
        for ino, size in self._running_sizes.items():
            durable = self._image.get(ino)
            if durable is not None:
                durable.size = size
        self._running_sizes.clear()
        self.stats.commits += 1
        self.stats.records_committed += committed
        if committed:
            self.uncheckpointed_txns += 1
        return committed

    def discard_running(self) -> int:
        """Power failure: the uncommitted transaction never happened."""
        discarded = self.running_record_count()
        self._running.clear()
        self._running_sizes.clear()
        self._running_dataops.clear()
        self.stats.records_discarded += discarded
        return discarded

    def checkpoint(self, inodes: dict[int, Inode]) -> None:
        """Declare the whole live tree durable (mkfs / clean mount).

        Snapshots every live inode's metadata and data; the running
        transaction is absorbed.  Zero virtual-time cost.
        """
        self._image = {ino: DurableInode.from_live(inode)
                       for ino, inode in inodes.items()}
        self._data = {ino: inode.data.clone() for ino, inode in inodes.items()
                      if isinstance(inode, RegularInode)}
        self._running.clear()
        self._running_sizes.clear()
        self._running_dataops.clear()
        self.uncheckpointed_txns = 0
        self.stats.checkpoints += 1

    # ------------------------------------------------------------- replay
    def replay(self, fs_name: str, store_data: bool) -> dict[int, Inode]:
        """Rebuild live inodes from the durable image (mount-time replay).

        File content is the durable data clone clipped or zero-extended to
        the committed size; an inode without a captured clone reads as all
        zeros (delayed allocation: the metadata commit landed, the data
        writeback did not).
        """
        self.stats.replays += 1
        self.uncheckpointed_txns = 0
        live: dict[int, Inode] = {}
        for ino, durable in self._image.items():
            cls = _CLASS_BY_KIND[durable.kind]
            inode = cls(ino=ino, mode=durable.mode, uid=durable.uid,
                        gid=durable.gid, nlink=durable.nlink,
                        rdev=durable.rdev, atime_ns=durable.atime_ns,
                        mtime_ns=durable.mtime_ns, ctime_ns=durable.ctime_ns,
                        xattrs=dict(durable.xattrs), fs_name=fs_name)
            if isinstance(inode, DirectoryInode):
                inode.entries = dict(durable.entries or {})
                inode.parent_ino = durable.parent_ino
            elif isinstance(inode, RegularInode):
                clone = self._data.get(ino)
                data = clone.clone() if clone is not None \
                    else FileData(store=store_data)
                data.truncate(durable.size)
                inode.data = data
            elif isinstance(inode, SymlinkInode):
                inode.target = durable.target
            live[ino] = inode
        return live

    # ------------------------------------------------------------- apply ops
    def _apply(self, rec: JournalRecord) -> None:
        apply_fn = getattr(self, f"_apply_{rec.op}")
        apply_fn(**rec.fields)

    def _dir(self, ino: int) -> DurableInode | None:
        durable = self._image.get(ino)
        return durable if durable is not None and durable.kind == "dir" else None

    def _apply_create(self, parent: int, name: str, ino: int, kind: str,
                      mode: int, uid: int, gid: int, rdev: int, target: str,
                      now_ns: int) -> None:
        nlink = 2 if kind == "dir" else 1
        self._image[ino] = DurableInode(
            kind=kind, mode=mode, uid=uid, gid=gid, nlink=nlink, rdev=rdev,
            atime_ns=now_ns, mtime_ns=now_ns, ctime_ns=now_ns,
            entries={} if kind == "dir" else None,
            parent_ino=parent if kind == "dir" else None, target=target)
        directory = self._dir(parent)
        if directory is not None:
            directory.entries[name] = ino
            if kind == "dir":
                directory.nlink += 1

    def _apply_link(self, parent: int, name: str, ino: int) -> None:
        directory = self._dir(parent)
        target = self._image.get(ino)
        if directory is None or target is None:
            return
        directory.entries[name] = ino
        target.nlink += 1

    def _drop_if_dead(self, ino: int) -> None:
        durable = self._image.get(ino)
        if durable is not None and durable.nlink <= 0:
            del self._image[ino]
            self._data.pop(ino, None)

    def _apply_unlink(self, parent: int, name: str, ino: int) -> None:
        directory = self._dir(parent)
        if directory is not None:
            directory.entries.pop(name, None)
        durable = self._image.get(ino)
        if durable is not None:
            durable.nlink -= 1
            # Pins are volatile: after a power failure no process holds an
            # open descriptor, so a committed unlink of the last link
            # reclaims the inode at replay (the orphan list's job in ext4).
            self._drop_if_dead(ino)

    def _apply_rmdir(self, parent: int, name: str, ino: int) -> None:
        directory = self._dir(parent)
        if directory is not None:
            directory.entries.pop(name, None)
            directory.nlink -= 1
        self._image.pop(ino, None)

    def _apply_rename(self, old_dir: int, old_name: str, new_dir: int,
                      new_name: str, ino: int, exchange: bool,
                      replaced_ino: int | None, is_dir: bool) -> None:
        src_dir = self._dir(old_dir)
        dst_dir = self._dir(new_dir)
        if src_dir is None or dst_dir is None:
            return
        if exchange:
            # Mirrors the live semantics exactly: bindings swap, link counts
            # and parent pointers stay (see Filesystem.rename).
            src_dir.entries[old_name] = replaced_ino
            dst_dir.entries[new_name] = ino
            return
        if replaced_ino is not None:
            replaced = self._image.get(replaced_ino)
            if replaced is not None:
                if replaced.kind == "dir":
                    dst_dir.nlink -= 1
                    self._image.pop(replaced_ino, None)
                else:
                    replaced.nlink -= 1
                    self._drop_if_dead(replaced_ino)
        src_dir.entries.pop(old_name, None)
        dst_dir.entries[new_name] = ino
        if is_dir and old_dir != new_dir:
            src_dir.nlink -= 1
            dst_dir.nlink += 1
            moved = self._image.get(ino)
            if moved is not None:
                moved.parent_ino = new_dir

    def _apply_attr(self, ino: int, mode: int, uid: int, gid: int,
                    atime_ns: int, mtime_ns: int, ctime_ns: int) -> None:
        durable = self._image.get(ino)
        if durable is None:
            return
        durable.mode = mode
        durable.uid = uid
        durable.gid = gid
        durable.atime_ns = atime_ns
        durable.mtime_ns = mtime_ns
        durable.ctime_ns = ctime_ns

    def _apply_xattr_set(self, ino: int, name: str, value: bytes) -> None:
        durable = self._image.get(ino)
        if durable is not None:
            durable.xattrs[name] = value

    def _apply_xattr_remove(self, ino: int, name: str) -> None:
        durable = self._image.get(ino)
        if durable is not None:
            durable.xattrs.pop(name, None)

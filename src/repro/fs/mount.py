"""Mounts, mount namespaces, bind mounts and mount propagation.

This is the substrate that Cntr's core trick — the *nested mount namespace* —
is built on.  The semantics modelled here follow ``mount_namespaces(7)``:

* a mount namespace is a tree of :class:`Mount` objects,
* ``unshare(CLONE_NEWNS)`` copies the tree,
* each mount has a propagation type (private, shared, slave); mounting below
  a *shared* mount replicates the event to every peer mount, mounting below a
  *private* mount stays local — which is why Cntr marks everything private
  inside its nested namespace so that nothing leaks back to the container,
* bind mounts graft an existing subtree (possibly from another filesystem)
  onto a mountpoint,
* ``MS_MOVE`` relocates a mount to a new mountpoint (Cntr moves the original
  container rootfs to ``/var/lib/cntr``),
* ``pivot-root``-style root replacement is implemented as ``chroot`` at the
  process layer on top of these primitives.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem

_mount_id_counter = itertools.count(1)


class MountPropagation(enum.Enum):
    """Propagation type of a mount (``MS_PRIVATE`` / ``MS_SHARED`` / ``MS_SLAVE``)."""

    PRIVATE = "private"
    SHARED = "shared"
    SLAVE = "slave"


@dataclass
class Mount:
    """One mounted filesystem instance inside a mount namespace."""

    fs: Filesystem
    root_ino: int
    parent: "Mount | None" = None
    mountpoint_ino: int | None = None
    mountpoint_path: str = "/"
    read_only: bool = False
    propagation: MountPropagation = MountPropagation.PRIVATE
    peer_group: "PeerGroup | None" = None
    mount_id: int = field(default_factory=lambda: next(_mount_id_counter))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Mount(id={self.mount_id}, fs={self.fs.name!r}, "
                f"at={self.mountpoint_path!r}, prop={self.propagation.value})")


@dataclass(eq=False)
class PeerGroup:
    """Shared mounts that replicate mount events to one another.

    The members may live in different namespaces, so each is kept with its
    namespace, in the order it joined; that order is the propagation order.
    Only the members' ``Mount.peer_group`` reaches a group, so it is pickled
    with the kernel that owns them (a snapshot fork gets its own copy) and
    freed with it.
    """

    members: list[tuple["MountNamespace", Mount]] = field(default_factory=list)

    def add(self, ns: "MountNamespace", mount: Mount) -> None:
        if all(member is not mount for _, member in self.members):
            self.members.append((ns, mount))

    def discard(self, mount: Mount) -> None:
        self.members = [(ns, m) for ns, m in self.members if m is not mount]

    def propagate(self, parent: Mount, new_mount: Mount) -> None:
        """Replicate ``new_mount``, made below ``parent``, below every other member."""
        for ns, peer in self.members:
            if peer is parent:
                continue
            ns._attach(Mount(fs=new_mount.fs, root_ino=new_mount.root_ino,
                             parent=peer, mountpoint_ino=new_mount.mountpoint_ino,
                             mountpoint_path=new_mount.mountpoint_path,
                             read_only=new_mount.read_only,
                             propagation=MountPropagation.SHARED,
                             peer_group=new_mount.peer_group))


class MountNamespace:
    """A tree of mounts as seen by a set of processes."""

    def __init__(self, root_fs: Filesystem | None = None) -> None:
        self.mounts: list[Mount] = []
        # (parent_mount_id, ino) -> stack of mounts, topmost last
        self._mounts_at: dict[tuple[int, int], list[Mount]] = {}
        self.root_mount: Mount | None = None
        if root_fs is not None:
            self.root_mount = Mount(fs=root_fs, root_ino=root_fs.root_ino,
                                    mountpoint_path="/")
            self.mounts.append(self.root_mount)

    # ------------------------------------------------------------- inspection
    def mounts_under(self, mount: Mount) -> list[Mount]:
        """All mounts whose parent chain includes ``mount`` (excluding itself)."""
        out = []
        for m in self.mounts:
            p = m.parent
            while p is not None:
                if p is mount:
                    out.append(m)
                    break
                p = p.parent
        return out

    def mount_at(self, parent: Mount, ino: int) -> Mount | None:
        """The topmost mount stacked on ``(parent, ino)``, if any."""
        stack = self._mounts_at.get((parent.mount_id, ino))
        return stack[-1] if stack else None

    def mount_table(self) -> list[dict]:
        """A ``/proc/self/mounts``-style listing."""
        rows = []
        for m in self.mounts:
            rows.append({
                "mount_id": m.mount_id,
                "fs_type": m.fs.fs_type,
                "source": m.fs.name,
                "mountpoint": m.mountpoint_path,
                "options": "ro" if m.read_only else "rw",
                "propagation": m.propagation.value,
            })
        return rows

    # ------------------------------------------------------------- mutation
    def mount(self, fs: Filesystem, at: tuple[Mount, int], path: str,
              root_ino: int | None = None, read_only: bool = False,
              propagate: bool = True) -> Mount:
        """Mount ``fs`` (or a subtree of it) on the mountpoint ``at``.

        When the mountpoint's parent mount is shared and ``propagate`` is
        true, the mount event is replicated to every peer mount.
        """
        parent_mount, ino = at
        if parent_mount not in self.mounts:
            raise FsError.einval("mountpoint is not in this namespace")
        mountpoint_inode = parent_mount.fs.iget(ino)
        source_root = root_ino or fs.root_ino
        source_is_dir = fs.iget(source_root).is_dir
        # Directories mount on directories; single-file bind mounts (what Cntr
        # uses for /etc/passwd and friends) mount on non-directories.
        if source_is_dir and not mountpoint_inode.is_dir:
            raise FsError.enotdir(path)
        if not source_is_dir and mountpoint_inode.is_dir:
            raise FsError.enotdir(path)
        new_mount = Mount(fs=fs, root_ino=root_ino or fs.root_ino,
                          parent=parent_mount, mountpoint_ino=ino,
                          mountpoint_path=path, read_only=read_only,
                          propagation=parent_mount.propagation,
                          peer_group=parent_mount.peer_group)
        self._attach(new_mount)
        if propagate and parent_mount.propagation == MountPropagation.SHARED:
            parent_mount.peer_group.propagate(parent_mount, new_mount)
        return new_mount

    def bind_mount(self, source: tuple[Mount, int], at: tuple[Mount, int],
                   path: str, read_only: bool = False,
                   recursive: bool = False) -> Mount:
        """Bind the subtree rooted at ``source`` onto the mountpoint ``at``.

        With ``recursive`` (``mount --rbind``) every mount stacked below the
        source subtree is replicated under the new bind mount, which is what
        Cntr relies on so the application's ``/tmp``, ``/proc`` and volume
        mounts stay visible under ``/var/lib/cntr``.
        """
        src_mount, src_ino = source
        # Snapshot the mount list before attaching the new bind so that the
        # replication below can never consider the bind itself (or any of the
        # replicas it creates) as a candidate — otherwise binding "/" into a
        # subtree of "/" would recurse forever.
        candidates = list(self.mounts)
        new_mount = self.mount(src_mount.fs, at, path, root_ino=src_ino,
                               read_only=read_only)
        if recursive:
            self._replicate_submounts(src_mount, src_ino, new_mount, path, candidates)
        return new_mount

    def _replicate_submounts(self, src_mount: Mount, src_root_ino: int,
                             new_parent: Mount, path: str,
                             candidates: list["Mount"]) -> None:
        """Replicate mounts stacked below ``src_mount`` under ``new_parent``."""
        for child in [m for m in candidates
                      if m.parent is src_mount and m.mountpoint_ino is not None]:
            # Only replicate children whose mountpoint is reachable from the
            # bound subtree root; binding from the subtree root itself (the
            # common case) reaches everything.
            replica = Mount(fs=child.fs, root_ino=child.root_ino,
                            parent=new_parent, mountpoint_ino=child.mountpoint_ino,
                            mountpoint_path=f"{path}{child.mountpoint_path}",
                            read_only=child.read_only,
                            propagation=MountPropagation.PRIVATE)
            self._attach(replica)
            self._replicate_submounts(child, child.root_ino, replica,
                                      replica.mountpoint_path, candidates)

    def move_mount(self, mount: Mount, at: tuple[Mount, int], path: str) -> Mount:
        """``mount --move``: detach ``mount`` and re-attach it at a new mountpoint."""
        if mount is self.root_mount:
            raise FsError.einval("cannot move the root mount")
        if mount not in self.mounts:
            raise FsError.einval("mount not in this namespace")
        self._detach(mount, keep=True)
        parent_mount, ino = at
        mount.parent = parent_mount
        mount.mountpoint_ino = ino
        mount.mountpoint_path = path
        self._attach(mount, already_listed=True)
        return mount

    def umount(self, mount: Mount, force: bool = False) -> None:
        """Unmount; fails with EBUSY when child mounts remain unless ``force``."""
        if mount is self.root_mount:
            raise FsError.ebusy("/")
        children = self.mounts_under(mount)
        if children and not force:
            raise FsError.ebusy(mount.mountpoint_path)
        for child in children:
            self._detach(child)
        self._detach(mount)

    def make_private(self, mount: Mount, recursive: bool = True) -> None:
        """``mount --make-(r)private``: stop receiving/sending propagation events."""
        targets = [mount] + (self.mounts_under(mount) if recursive else [])
        for m in targets:
            if m.peer_group is not None:
                m.peer_group.discard(m)
            m.propagation = MountPropagation.PRIVATE
            m.peer_group = None

    def make_shared(self, mount: Mount, recursive: bool = False) -> None:
        """``mount --make-(r)shared``: join (or create) a peer group."""
        targets = [mount] + (self.mounts_under(mount) if recursive else [])
        for m in targets:
            if m.peer_group is None:
                m.peer_group = PeerGroup()
            m.propagation = MountPropagation.SHARED
            m.peer_group.add(self, m)

    def make_all_private(self) -> None:
        """Mark every mount in the namespace private (what Cntr does on attach)."""
        for m in list(self.mounts):
            self.make_private(m, recursive=False)

    def clone(self) -> "MountNamespace":
        """Copy the namespace, as ``unshare(CLONE_NEWNS)`` does.

        Shared mounts in the parent remain peers of the copies, private mounts
        become independent.
        """
        new_ns = MountNamespace()
        mapping: dict[int, Mount] = {}
        # Copy mounts in parent-before-child order.
        ordered = _topo_order(self.mounts, self.root_mount)
        for m in ordered:
            copy = Mount(fs=m.fs, root_ino=m.root_ino,
                         parent=mapping.get(m.parent.mount_id) if m.parent else None,
                         mountpoint_ino=m.mountpoint_ino,
                         mountpoint_path=m.mountpoint_path,
                         read_only=m.read_only,
                         propagation=m.propagation,
                         peer_group=m.peer_group)
            mapping[m.mount_id] = copy
            new_ns.mounts.append(copy)
            if m is self.root_mount:
                new_ns.root_mount = copy
            if copy.parent is not None and copy.mountpoint_ino is not None:
                key = (copy.parent.mount_id, copy.mountpoint_ino)
                new_ns._mounts_at.setdefault(key, []).append(copy)
            if copy.propagation == MountPropagation.SHARED:
                copy.peer_group.add(new_ns, copy)
        return new_ns

    # ------------------------------------------------------------- internals
    def _attach(self, mount: Mount, already_listed: bool = False) -> None:
        if not already_listed:
            self.mounts.append(mount)
        if mount.parent is not None and mount.mountpoint_ino is not None:
            key = (mount.parent.mount_id, mount.mountpoint_ino)
            self._mounts_at.setdefault(key, []).append(mount)

    def _detach(self, mount: Mount, keep: bool = False) -> None:
        if mount.parent is not None and mount.mountpoint_ino is not None:
            key = (mount.parent.mount_id, mount.mountpoint_ino)
            stack = self._mounts_at.get(key, [])
            if mount in stack:
                stack.remove(mount)
            if not stack:
                self._mounts_at.pop(key, None)
        if not keep and mount in self.mounts:
            self.mounts.remove(mount)
        if mount.peer_group is not None:
            mount.peer_group.discard(mount)


def _topo_order(mounts: list[Mount], root: Mount | None) -> list[Mount]:
    """Order mounts so parents come before children."""
    ordered: list[Mount] = []
    remaining = list(mounts)
    placed: set[int] = set()
    while remaining:
        progressed = False
        for m in list(remaining):
            if m.parent is None or m.parent.mount_id in placed:
                ordered.append(m)
                placed.add(m.mount_id)
                remaining.remove(m)
                progressed = True
        if not progressed:  # orphaned mounts; append as-is to avoid an infinite loop
            ordered.extend(remaining)
            break
    return ordered

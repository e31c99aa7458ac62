"""Tests for inodes, file data, ACLs, locks and the page cache."""

import errno

import pytest

from repro.fs.acl import AclTag, PosixAcl
from repro.fs.constants import FileMode, LockType
from repro.fs.errors import FsError
from repro.fs.inode import FileData
from repro.fs.locks import LockTable
from repro.fs.pagecache import PageCache, page_span
from repro.fs.filesystem import Filesystem
from repro.sim import CostModel, VirtualClock


class TestFileData:
    def test_roundtrip(self):
        data = FileData()
        data.write(0, b"hello world")
        assert data.read(0, 11) == b"hello world"
        assert len(data) == 11

    def test_sparse_holes_read_as_zeros(self):
        data = FileData()
        data.write(10_000, b"x")
        assert data.read(0, 4) == b"\x00\x00\x00\x00"
        assert data.read(10_000, 1) == b"x"
        assert len(data) == 10_001

    def test_truncate_shrink_and_grow(self):
        data = FileData(b"abcdef")
        data.truncate(3)
        assert data.to_bytes() == b"abc"
        data.truncate(6)
        assert data.to_bytes() == b"abc\x00\x00\x00"

    def test_punch_hole(self):
        data = FileData(b"A" * 100)
        data.punch_hole(10, 20)
        assert data.read(10, 20) == b"\x00" * 20
        assert data.read(0, 10) == b"A" * 10
        assert len(data) == 100

    def test_store_false_tracks_size_only(self):
        data = FileData(store=False)
        data.write(0, b"payload")
        assert len(data) == 7
        assert data.read(0, 7) == b"\x00" * 7
        assert data.stored_bytes() == 0

    def test_overwrite_within_page(self):
        data = FileData(b"aaaaaaaaaa")
        data.write(3, b"BBB")
        assert data.to_bytes() == b"aaaBBBaaaa"


class TestPosixAcl:
    def test_from_mode(self):
        acl = PosixAcl.from_mode(0o640)
        assert acl.entries_for(AclTag.USER_OBJ)[0].perms == 0o6
        assert acl.entries_for(AclTag.GROUP_OBJ)[0].perms == 0o4
        assert acl.entries_for(AclTag.OTHER)[0].perms == 0o0

    def test_named_user_entry_grants_access(self):
        acl = PosixAcl.from_mode(0o600)
        acl.add(AclTag.USER, 1000, 0o4)
        assert acl.check(1000, {1000}, owner_uid=0, owner_gid=0, want=0o4) is True

    def test_named_group_ids(self):
        acl = PosixAcl.from_mode(0o640)
        acl.add(AclTag.GROUP, 42, 0o6)
        acl.add(AclTag.GROUP, 43, 0o4)
        assert acl.named_group_ids() == {42, 43}

    def test_unmatched_caller_falls_through_to_other(self):
        acl = PosixAcl.from_mode(0o604)
        assert acl.check(999, {999}, owner_uid=0, owner_gid=0, want=0o4) is True
        assert acl.check(999, {999}, owner_uid=0, owner_gid=0, want=0o2) is False


class TestLockTable:
    def test_conflicting_write_locks(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_WRLCK)
        with pytest.raises(FsError) as exc:
            table.acquire(owner=2, lock_type=LockType.F_WRLCK)
        assert exc.value.errno == errno.EAGAIN

    def test_shared_read_locks_allowed(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_RDLCK)
        table.acquire(owner=2, lock_type=LockType.F_RDLCK)
        assert len(table.held_locks()) == 2

    def test_non_overlapping_ranges_do_not_conflict(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_WRLCK, start=0, length=100)
        table.acquire(owner=2, lock_type=LockType.F_WRLCK, start=100, length=100)

    def test_unlock_via_f_unlck(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_WRLCK)
        table.acquire(owner=1, lock_type=LockType.F_UNLCK)
        table.acquire(owner=2, lock_type=LockType.F_WRLCK)

    def test_release_owner(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_WRLCK, start=0, length=10)
        table.acquire(owner=1, lock_type=LockType.F_WRLCK, start=20, length=10)
        table.release_owner(1)
        assert table.held_locks() == []

    def test_same_owner_upgrade(self):
        table = LockTable()
        table.acquire(owner=1, lock_type=LockType.F_RDLCK)
        table.acquire(owner=1, lock_type=LockType.F_WRLCK)
        locks = table.held_locks()
        assert len(locks) == 1
        assert locks[0].lock_type == LockType.F_WRLCK


class TestPageCache:
    def test_page_span(self):
        assert list(page_span(0, 4096)) == [0]
        assert list(page_span(4095, 2)) == [0, 1]
        assert list(page_span(8192, 0)) == []

    def test_miss_then_hit(self):
        cache = PageCache()
        hits, misses = cache.access(1, 0, 8192)
        assert (hits, misses) == (0, 2)
        hits, misses = cache.access(1, 0, 8192)
        assert (hits, misses) == (2, 0)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_dirty_tracking_and_clean(self):
        cache = PageCache()
        assert cache.write(1, 0, 4096) == 1
        assert cache.dirty_pages(1) == [(1, 0)]
        assert cache.clean(1) == 1
        assert cache.dirty_pages(1) == []

    def test_lru_eviction(self):
        cache = PageCache(max_bytes=2 * 4096)
        cache.access(1, 0, 4096)
        cache.access(1, 4096, 4096)
        cache.access(1, 8192, 4096)   # evicts page 0
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        hits, misses = cache.access(1, 0, 4096)
        assert misses == 1

    def test_invalidate_single_inode(self):
        cache = PageCache()
        cache.access(1, 0, 4096)
        cache.access(2, 0, 4096)
        assert cache.invalidate(1) == 1
        assert cache.is_resident(2, 0)
        assert not cache.is_resident(1, 0)

    def test_sustained_rewrite_keeps_structure_bounded(self):
        """Regression: rewriting the same ranges forever must not grow any
        internal ordering structure.

        The old eviction order was a lazy-deletion seq-heap: every LRU
        refresh pushed a new entry and left the stale one behind, so a
        steady rewrite loop grew the heap without bound (and each eviction
        had to pop through the garbage).  The intrusive LRU list is O(1) per
        refresh with no stale state; after any number of rewrites the
        bookkeeping is exactly one node per live extent.
        """
        cache = PageCache(max_bytes=64 * 4096)
        for i in range(5000):
            cache.write(1 + (i % 4), 0, 4 * 4096)      # 4 inodes, same range
            cache.access(1 + (i % 4), 0, 4 * 4096)
        assert len(cache) == 16                        # 4 inodes x 4 pages
        # One live extent per inode, one LRU node per live extent, and a
        # dirty index covering exactly the dirty extents — nothing stale.
        assert cache.extent_count() == 4
        assert sum(len(lst) for lst in cache._by_ino.values()) == 4
        lru_nodes = 0
        node = cache._lru_head.nxt
        while node is not cache._lru_tail:
            lru_nodes += 1
            node = node.nxt
        assert lru_nodes == 4
        assert sum(len(d) for d in cache._dirty_exts.values()) == 4
        # The refreshed extents' sequence numbers stay totally ordered and
        # the LRU list agrees with them (the heap's ordering contract).
        seqs = [ext.seq for lst in cache._by_ino.values() for ext in lst]
        assert len(set(seqs)) == len(seqs)

    def test_eviction_order_matches_seq_heap_reference(self):
        """The LRU list must evict exactly what a (seq, start) min-heap—the
        old implementation's order—would evict, under a churny mixed load."""
        import heapq
        import random

        rng = random.Random(7)
        cache = PageCache(max_bytes=48 * 4096)
        for _ in range(800):
            ino = rng.randrange(1, 6)
            page = rng.randrange(0, 40)
            n = rng.randrange(1, 6)
            if rng.random() < 0.5:
                cache.access(ino, page * 4096, n * 4096)
            else:
                cache.write(ino, page * 4096, n * 4096)
            # The next capacity eviction starts at the extent a seq-heap
            # (rebuilt fresh, i.e. with perfect lazy deletion) would pop.
            live = [ext for lst in cache._by_ino.values() for ext in lst]
            if live:
                heap = [(ext.seq, ext.start, ext.eid) for ext in live]
                heapq.heapify(heap)
                oldest_eid = heap[0][2]
                head = cache._lru_head.nxt
                assert head.eid == oldest_eid
                assert cache.oldest_seq() == heap[0][0]


class TestFilesystemObjectModel:
    def _fs(self):
        return Filesystem("testfs", VirtualClock(), CostModel())

    def test_create_lookup_roundtrip(self):
        fs = self._fs()
        inode = fs.create(fs.root_ino, "file", 0o644)
        assert fs.lookup(fs.root_ino, "file").ino == inode.ino

    def test_nlink_accounting_for_directories(self):
        fs = self._fs()
        assert fs.root().nlink == 2
        fs.mkdir(fs.root_ino, "child", 0o755)
        assert fs.root().nlink == 3
        fs.rmdir(fs.root_ino, "child")
        assert fs.root().nlink == 2

    def test_unlink_drops_inode_unless_pinned(self):
        fs = self._fs()
        inode = fs.create(fs.root_ino, "pinned", 0o644)
        fs.pin(inode.ino)
        fs.unlink(fs.root_ino, "pinned")
        assert fs.iget(inode.ino) is inode
        fs.unpin(inode.ino)
        with pytest.raises(FsError):
            fs.iget(inode.ino)

    def test_rename_exchange(self):
        fs = self._fs()
        a = fs.create(fs.root_ino, "a", 0o644)
        b = fs.create(fs.root_ino, "b", 0o644)
        from repro.fs.constants import RenameFlags
        fs.rename(fs.root_ino, "a", fs.root_ino, "b", RenameFlags.RENAME_EXCHANGE)
        assert fs.lookup(fs.root_ino, "a").ino == b.ino
        assert fs.lookup(fs.root_ino, "b").ino == a.ino

    def test_write_charges_virtual_time(self):
        fs = self._fs()
        inode = fs.create(fs.root_ino, "timed", 0o644)
        before = fs.clock.now_ns
        fs.write(inode.ino, 0, b"x" * 4096)
        assert fs.clock.now_ns > before

    def test_statfs_reports_usage(self):
        fs = self._fs()
        inode = fs.create(fs.root_ino, "big", 0o644)
        fs.write(inode.ino, 0, b"z" * (1 << 20))
        stats = fs.statfs()
        assert stats.f_bfree < stats.f_blocks

    def test_readdir_includes_dot_entries(self):
        fs = self._fs()
        fs.create(fs.root_ino, "x", 0o644)
        names = [name for name, _, _ in fs.readdir(fs.root_ino)]
        assert names[:2] == [".", ".."] and "x" in names

    def test_mode_type_bits(self):
        fs = self._fs()
        fifo = fs.mknod(fs.root_ino, "fifo", int(FileMode.S_IFIFO) | 0o600)
        assert fifo.file_type == FileMode.S_IFIFO

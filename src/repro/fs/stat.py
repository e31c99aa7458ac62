"""``stat``/``statvfs`` result structures."""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.constants import FileMode, file_type


@dataclass(frozen=True)
class FileStat:
    """Snapshot of an inode's metadata, the result of ``stat(2)``."""

    st_dev: int
    st_ino: int
    st_mode: int
    st_nlink: int
    st_uid: int
    st_gid: int
    st_rdev: int
    st_size: int
    st_blksize: int
    st_blocks: int
    st_atime_ns: int
    st_mtime_ns: int
    st_ctime_ns: int

    @property
    def is_dir(self) -> bool:
        """True if the inode is a directory."""
        return file_type(self.st_mode) == FileMode.S_IFDIR

    @property
    def is_regular(self) -> bool:
        """True if the inode is a regular file."""
        return file_type(self.st_mode) == FileMode.S_IFREG

    @property
    def is_symlink(self) -> bool:
        """True if the inode is a symbolic link."""
        return file_type(self.st_mode) == FileMode.S_IFLNK

    @property
    def permissions(self) -> int:
        """Permission bits only (mode with the type bits masked off)."""
        return self.st_mode & 0o7777


@dataclass(frozen=True)
class StatVfs:
    """Filesystem-level statistics, the result of ``statfs(2)``."""

    f_bsize: int
    f_blocks: int
    f_bfree: int
    f_bavail: int
    f_files: int
    f_ffree: int
    f_namemax: int

    @property
    def bytes_total(self) -> int:
        """Total capacity in bytes."""
        return self.f_bsize * self.f_blocks

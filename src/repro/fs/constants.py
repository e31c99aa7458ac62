"""Flag and mode constants mirroring the Linux filesystem API."""

from __future__ import annotations

import enum


class FileMode(enum.IntFlag):
    """File type and permission bits, matching ``stat.S_IF*`` and mode bits."""

    # file type bits
    S_IFMT = 0o170000
    S_IFSOCK = 0o140000
    S_IFLNK = 0o120000
    S_IFREG = 0o100000
    S_IFBLK = 0o060000
    S_IFDIR = 0o040000
    S_IFCHR = 0o020000
    S_IFIFO = 0o010000

    # special permission bits
    S_ISUID = 0o4000
    S_ISGID = 0o2000
    S_ISVTX = 0o1000

    # owner / group / other permission bits
    S_IRWXU = 0o700
    S_IRUSR = 0o400
    S_IWUSR = 0o200
    S_IXUSR = 0o100
    S_IRWXG = 0o070
    S_IRGRP = 0o040
    S_IWGRP = 0o020
    S_IXGRP = 0o010
    S_IRWXO = 0o007
    S_IROTH = 0o004
    S_IWOTH = 0o002
    S_IXOTH = 0o001


def file_type(mode: int) -> int:
    """Return only the file-type bits of ``mode``."""
    return mode & FileMode.S_IFMT


def is_dir(mode: int) -> bool:
    """True when ``mode`` describes a directory."""
    return file_type(mode) == FileMode.S_IFDIR


def is_regular(mode: int) -> bool:
    """True when ``mode`` describes a regular file."""
    return file_type(mode) == FileMode.S_IFREG


def is_symlink(mode: int) -> bool:
    """True when ``mode`` describes a symbolic link."""
    return file_type(mode) == FileMode.S_IFLNK


class OpenFlags(enum.IntFlag):
    """``open(2)`` flags."""

    O_RDONLY = 0o0
    O_WRONLY = 0o1
    O_RDWR = 0o2
    O_ACCMODE = 0o3
    O_CREAT = 0o100
    O_EXCL = 0o200
    O_NOCTTY = 0o400
    O_TRUNC = 0o1000
    O_APPEND = 0o2000
    O_NONBLOCK = 0o4000
    O_DSYNC = 0o10000
    O_DIRECT = 0o40000
    O_DIRECTORY = 0o200000
    O_NOFOLLOW = 0o400000
    O_CLOEXEC = 0o2000000
    O_SYNC = 0o4010000
    O_PATH = 0o10000000
    O_TMPFILE = 0o20200000


class SeekWhence(enum.IntEnum):
    """``lseek(2)`` whence values."""

    SEEK_SET = 0
    SEEK_CUR = 1
    SEEK_END = 2
    SEEK_DATA = 3
    SEEK_HOLE = 4


class XattrFlags(enum.IntFlag):
    """``setxattr(2)`` flags."""

    NONE = 0
    XATTR_CREATE = 1
    XATTR_REPLACE = 2


class RenameFlags(enum.IntFlag):
    """``renameat2(2)`` flags."""

    NONE = 0
    RENAME_NOREPLACE = 1
    RENAME_EXCHANGE = 2
    RENAME_WHITEOUT = 4


class LockType(enum.IntEnum):
    """Advisory lock types (``fcntl(2)`` style)."""

    F_RDLCK = 0
    F_WRLCK = 1
    F_UNLCK = 2


class AccessMode(enum.IntFlag):
    """``access(2)`` probe modes."""

    F_OK = 0
    X_OK = 1
    W_OK = 2
    R_OK = 4


class FallocateMode(enum.IntFlag):
    """``fallocate(2)`` modes (subset)."""

    DEFAULT = 0
    KEEP_SIZE = 1
    PUNCH_HOLE = 2
    ZERO_RANGE = 16


#: Maximum length of one path component.
NAME_MAX = 255
#: Maximum total path length.
PATH_MAX = 4096
#: Maximum number of symlink traversals in a single path walk.
SYMLOOP_MAX = 40
#: Default permission mask applied to new files when the caller does not care.
DEFAULT_FILE_MODE = 0o644
#: Default permission mask applied to new directories.
DEFAULT_DIR_MODE = 0o755

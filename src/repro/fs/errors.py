"""Filesystem error type mirroring POSIX errno semantics."""

from __future__ import annotations

import errno as _errno
import os


class FsError(OSError):
    """An error raised by the simulated VFS, carrying a POSIX errno.

    The class subclasses :class:`OSError` so test code can use the familiar
    ``exc.errno == errno.ENOENT`` idiom.
    """

    def __init__(self, err: int, path: str | None = None, msg: str | None = None) -> None:
        text = msg or os.strerror(err)
        if path:
            text = f"{text}: {path!r}"
        super().__init__(err, text)
        self.path = path

    @classmethod
    def enoent(cls, path: str | None = None) -> "FsError":
        """No such file or directory."""
        return cls(_errno.ENOENT, path)

    @classmethod
    def eexist(cls, path: str | None = None) -> "FsError":
        """File exists."""
        return cls(_errno.EEXIST, path)

    @classmethod
    def enotdir(cls, path: str | None = None) -> "FsError":
        """Not a directory."""
        return cls(_errno.ENOTDIR, path)

    @classmethod
    def eisdir(cls, path: str | None = None) -> "FsError":
        """Is a directory."""
        return cls(_errno.EISDIR, path)

    @classmethod
    def enotempty(cls, path: str | None = None) -> "FsError":
        """Directory not empty."""
        return cls(_errno.ENOTEMPTY, path)

    @classmethod
    def eacces(cls, path: str | None = None) -> "FsError":
        """Permission denied."""
        return cls(_errno.EACCES, path)

    @classmethod
    def eperm(cls, path: str | None = None) -> "FsError":
        """Operation not permitted."""
        return cls(_errno.EPERM, path)

    @classmethod
    def einval(cls, msg: str | None = None) -> "FsError":
        """Invalid argument."""
        return cls(_errno.EINVAL, msg=msg)

    @classmethod
    def ebadf(cls, msg: str | None = None) -> "FsError":
        """Bad file descriptor."""
        return cls(_errno.EBADF, msg=msg)

    @classmethod
    def enxio(cls, msg: str | None = None) -> "FsError":
        """No such device or address (SEEK_DATA/SEEK_HOLE past EOF)."""
        return cls(_errno.ENXIO, msg=msg)

    @classmethod
    def enodata(cls, name: str | None = None) -> "FsError":
        """No data available (missing xattr)."""
        return cls(_errno.ENODATA, name)

    @classmethod
    def exdev(cls, path: str | None = None) -> "FsError":
        """Cross-device link."""
        return cls(_errno.EXDEV, path)

    @classmethod
    def enospc(cls, path: str | None = None) -> "FsError":
        """No space left on device."""
        return cls(_errno.ENOSPC, path)

    @classmethod
    def erofs(cls, path: str | None = None) -> "FsError":
        """Read-only filesystem."""
        return cls(_errno.EROFS, path)

    @classmethod
    def eloop(cls, path: str | None = None) -> "FsError":
        """Too many levels of symbolic links."""
        return cls(_errno.ELOOP, path)

    @classmethod
    def enametoolong(cls, path: str | None = None) -> "FsError":
        """File name too long."""
        return cls(_errno.ENAMETOOLONG, path)

    @classmethod
    def ebusy(cls, path: str | None = None) -> "FsError":
        """Device or resource busy."""
        return cls(_errno.EBUSY, path)

    @classmethod
    def efbig(cls, path: str | None = None) -> "FsError":
        """File too large (RLIMIT_FSIZE exceeded)."""
        return cls(_errno.EFBIG, path)

    @classmethod
    def enotsup(cls, msg: str | None = None) -> "FsError":
        """Operation not supported."""
        return cls(_errno.ENOTSUP, msg=msg)

    @classmethod
    def erange(cls, msg: str | None = None) -> "FsError":
        """Result too large for the supplied buffer."""
        return cls(_errno.ERANGE, msg=msg)

    @classmethod
    def estale(cls, msg: str | None = None) -> "FsError":
        """Stale file handle (used by the non-exportable-inode path)."""
        return cls(_errno.ESTALE, msg=msg)

    @classmethod
    def esrch(cls, msg: str | None = None) -> "FsError":
        """No such process."""
        return cls(_errno.ESRCH, msg=msg)

    @classmethod
    def emfile(cls, msg: str | None = None) -> "FsError":
        """Too many open files."""
        return cls(_errno.EMFILE, msg=msg)

    @classmethod
    def eagain(cls, msg: str | None = None) -> "FsError":
        """Resource temporarily unavailable."""
        return cls(_errno.EAGAIN, msg=msg)

    @classmethod
    def epipe(cls, msg: str | None = None) -> "FsError":
        """Broken pipe."""
        return cls(_errno.EPIPE, msg=msg)

    @classmethod
    def enotconn(cls, msg: str | None = None) -> "FsError":
        """Socket is not connected."""
        return cls(_errno.ENOTCONN, msg=msg)

    @classmethod
    def econnrefused(cls, msg: str | None = None) -> "FsError":
        """Connection refused."""
        return cls(_errno.ECONNREFUSED, msg=msg)

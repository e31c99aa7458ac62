"""Unix-socket forwarding between the nested namespace and the tools side.

Unix sockets exported through CntrFS are visible as files but their inode
numbers differ from the underlying filesystem, so the kernel cannot associate
them with live sockets (paper §3.2.4).  Cntr therefore runs a small proxy: an
epoll event loop that accepts connections on a socket inside the application
container and splices the byte stream to the real server socket on the host or
in the fat container (X11, D-Bus).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.errors import FsError
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls

_PUMP_CHUNK = 64 * 1024


@dataclass
class _ProxyPair:
    """One proxied connection: the container-side and tools-side endpoints."""

    inside_fd: int
    outside_fd: int
    bytes_forwarded: int = 0


class SocketProxy:
    """Forward connections from ``listen_path`` (container) to ``target_path``."""

    def __init__(self, kernel: Kernel, listen_sc: Syscalls, listen_path: str,
                 connect_sc: Syscalls, target_path: str) -> None:
        self.kernel = kernel
        self.listen_sc = listen_sc
        self.connect_sc = connect_sc
        self.listen_path = listen_path
        self.target_path = target_path
        self.pairs: list[_ProxyPair] = []
        self.closed = False
        self.bytes_total = 0
        parent = listen_path.rsplit("/", 1)[0] or "/"
        if not listen_sc.exists(parent):
            listen_sc.makedirs(parent)
        if listen_sc.exists(listen_path):
            listen_sc.unlink(listen_path)
        self.listener_fd = listen_sc.unix_listen(listen_path)
        self.epoll_fd = listen_sc.epoll_create()
        listen_sc.epoll_ctl_add(self.epoll_fd, self.listener_fd, {"in"})

    # ------------------------------------------------------------- event loop
    def pump(self) -> int:
        """One event-loop round: accept new connections, splice pending bytes."""
        if self.closed:
            return 0
        moved = 0
        moved += self._accept_pending()
        for pair in list(self.pairs):
            moved += self._shuttle(pair)
        self.bytes_total += moved
        return moved

    def _accept_pending(self) -> int:
        accepted = 0
        events = self.listen_sc.epoll_wait(self.epoll_fd)
        for fd, fired in events:
            if fd != self.listener_fd or "in" not in fired:
                continue
            while True:
                try:
                    inside_fd = self.listen_sc.unix_accept(self.listener_fd)
                except FsError as exc:
                    if exc.errno == 11:  # EAGAIN: backlog drained
                        break
                    raise
                outside_fd = self.connect_sc.unix_connect(self.target_path)
                self.pairs.append(_ProxyPair(inside_fd=inside_fd, outside_fd=outside_fd))
                accepted += 1
        return accepted

    def _shuttle(self, pair: _ProxyPair) -> int:
        """Splice bytes in both directions for one connection."""
        moved = 0
        for src_sc, src_fd, dst_sc, dst_fd in (
                (self.listen_sc, pair.inside_fd, self.connect_sc, pair.outside_fd),
                (self.connect_sc, pair.outside_fd, self.listen_sc, pair.inside_fd)):
            while True:
                try:
                    # The real implementation splices the two descriptors in a
                    # single process; the proxy here drives each end through
                    # its own process and charges the equivalent splice cost
                    # instead of the two userspace copies.
                    data = src_sc.read(src_fd, _PUMP_CHUNK)
                except FsError as exc:
                    if exc.errno in (11, 32, 107):  # EAGAIN / EPIPE / ENOTCONN
                        break
                    raise
                if not data:
                    break
                count = dst_sc.write(dst_fd, data)
                self.kernel.clock.advance(int(self.kernel.costs.splice_cost(count)))
                moved += count
                pair.bytes_forwarded += count
        return moved

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the listener and every proxied connection."""
        if self.closed:
            return
        self.closed = True
        for pair in self.pairs:
            for sc, fd in ((self.listen_sc, pair.inside_fd),
                           (self.connect_sc, pair.outside_fd)):
                try:
                    sc.close(fd)
                except FsError:
                    pass
        try:
            self.listen_sc.close(self.listener_fd)
            self.listen_sc.close(self.epoll_fd)
        except FsError:
            pass

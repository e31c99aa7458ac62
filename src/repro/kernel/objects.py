"""Kernel IPC objects: pipes, Unix sockets, epoll instances and pseudo-TTYs.

These are the non-filesystem objects that can live in a process's file
descriptor table.  They follow non-blocking semantics (EAGAIN instead of
blocking) because the simulation is single-threaded; the socket proxy and the
pseudo-TTY forwarder drive them from explicit event loops, exactly as the Rust
implementation does with epoll.
"""

from __future__ import annotations

import itertools

from repro.fs.errors import FsError

PIPE_BUF_CAPACITY = 64 * 1024

_object_id_counter = itertools.count(1)


class KernelObject:
    """Base class for everything a non-VFS file descriptor can point at."""

    def __init__(self) -> None:
        self.object_id = next(_object_id_counter)
        self.closed = False

    # Subclasses override the subset of operations they support.
    def read(self, size: int) -> bytes:
        """Read up to ``size`` bytes."""
        raise FsError.einval("object is not readable")

    def write(self, data: bytes) -> int:
        """Write ``data``; returns bytes accepted."""
        raise FsError.einval("object is not writable")

    def close(self) -> None:
        """Release the object (idempotent)."""
        self.closed = True

    def poll(self) -> set[str]:
        """Readiness events: subset of {"in", "out", "hup"}."""
        return set()


class Pipe:
    """An anonymous pipe shared by one read end and one write end."""

    def __init__(self, capacity: int = PIPE_BUF_CAPACITY) -> None:
        self.capacity = capacity
        self.buffer = bytearray()
        self.read_open = True
        self.write_open = True

    @property
    def fill(self) -> int:
        """Bytes currently buffered."""
        return len(self.buffer)

    def space(self) -> int:
        """Free space remaining."""
        return self.capacity - len(self.buffer)


class PipeReadEnd(KernelObject):
    """The read end of a pipe."""

    def __init__(self, pipe: Pipe) -> None:
        super().__init__()
        self.pipe = pipe

    def read(self, size: int) -> bytes:
        if self.closed:
            raise FsError.ebadf("pipe read end closed")
        if not self.pipe.buffer:
            if not self.pipe.write_open:
                return b""
            raise FsError.eagain("pipe empty")
        data = bytes(self.pipe.buffer[:size])
        del self.pipe.buffer[:size]
        return data

    def poll(self) -> set[str]:
        events = set()
        if self.pipe.buffer:
            events.add("in")
        if not self.pipe.write_open:
            events.add("hup")
        return events

    def close(self) -> None:
        super().close()
        self.pipe.read_open = False


class PipeWriteEnd(KernelObject):
    """The write end of a pipe."""

    def __init__(self, pipe: Pipe) -> None:
        super().__init__()
        self.pipe = pipe

    def write(self, data: bytes) -> int:
        if self.closed:
            raise FsError.ebadf("pipe write end closed")
        if not self.pipe.read_open:
            raise FsError.epipe("reader closed")
        space = self.pipe.space()
        if space <= 0:
            raise FsError.eagain("pipe full")
        accepted = data[:space]
        self.pipe.buffer.extend(accepted)
        return len(accepted)

    def poll(self) -> set[str]:
        events = set()
        if self.pipe.space() > 0:
            events.add("out")
        if not self.pipe.read_open:
            events.add("hup")
        return events

    def close(self) -> None:
        super().close()
        self.pipe.write_open = False


def make_pipe(capacity: int = PIPE_BUF_CAPACITY) -> tuple[PipeReadEnd, PipeWriteEnd]:
    """Create a pipe and return ``(read_end, write_end)``."""
    pipe = Pipe(capacity)
    return PipeReadEnd(pipe), PipeWriteEnd(pipe)


class SocketEndpoint(KernelObject):
    """One endpoint of a connected Unix stream socket."""

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name
        self.rx = bytearray()
        self.peer: "SocketEndpoint | None" = None

    def connect_peer(self, peer: "SocketEndpoint") -> None:
        """Wire two endpoints together."""
        self.peer = peer
        peer.peer = self

    def read(self, size: int) -> bytes:
        if self.closed:
            raise FsError.ebadf("socket closed")
        if not self.rx:
            if self.peer is None or self.peer.closed:
                return b""
            raise FsError.eagain("no data")
        data = bytes(self.rx[:size])
        del self.rx[:size]
        return data

    def write(self, data: bytes) -> int:
        if self.closed:
            raise FsError.ebadf("socket closed")
        if self.peer is None:
            raise FsError.enotconn()
        if self.peer.closed:
            raise FsError.epipe("peer closed")
        self.peer.rx.extend(data)
        return len(data)

    def poll(self) -> set[str]:
        events = set()
        if self.rx:
            events.add("in")
        if self.peer is not None and not self.peer.closed:
            events.add("out")
        if self.peer is None or self.peer.closed:
            events.add("hup")
            if not self.rx:
                events.add("in")  # EOF is readable
        return events


class UnixListener(KernelObject):
    """A listening Unix socket bound to a filesystem path."""

    def __init__(self, path: str, backlog: int = 128) -> None:
        super().__init__()
        self.path = path
        self.backlog_limit = backlog
        self._pending: list[SocketEndpoint] = []

    def enqueue_connection(self) -> SocketEndpoint:
        """Called by ``connect``: create a socket pair, queue the server side."""
        if self.closed:
            raise FsError.econnrefused(self.path)
        if len(self._pending) >= self.backlog_limit:
            raise FsError.eagain("backlog full")
        client = SocketEndpoint(name=f"client:{self.path}")
        server = SocketEndpoint(name=f"server:{self.path}")
        client.connect_peer(server)
        self._pending.append(server)
        return client

    def accept(self) -> SocketEndpoint:
        """Pop one pending connection."""
        if self.closed:
            raise FsError.ebadf("listener closed")
        if not self._pending:
            raise FsError.eagain("no pending connections")
        return self._pending.pop(0)

    def poll(self) -> set[str]:
        return {"in"} if self._pending else set()


def make_socketpair() -> tuple[SocketEndpoint, SocketEndpoint]:
    """``socketpair(AF_UNIX, SOCK_STREAM)``."""
    a = SocketEndpoint(name="socketpair:a")
    b = SocketEndpoint(name="socketpair:b")
    a.connect_peer(b)
    return a, b


class EpollInstance(KernelObject):
    """An epoll interest list."""

    def __init__(self) -> None:
        super().__init__()
        self._watched: dict[int, tuple[KernelObject, set[str]]] = {}

    def add(self, fd: int, obj: KernelObject, events: set[str]) -> None:
        """``EPOLL_CTL_ADD``."""
        if fd in self._watched:
            raise FsError.eexist(str(fd))
        self._watched[fd] = (obj, set(events))

    def remove(self, fd: int) -> None:
        """``EPOLL_CTL_DEL``."""
        self._watched.pop(fd, None)

    def wait(self, max_events: int = 64) -> list[tuple[int, set[str]]]:
        """Return up to ``max_events`` ready ``(fd, events)`` pairs (non-blocking)."""
        ready = []
        for fd, (obj, interest) in self._watched.items():
            events = obj.poll()
            fired = (events & interest) | ({"hup"} & events)
            if fired:
                ready.append((fd, fired))
            if len(ready) >= max_events:
                break
        return ready


class PtyPair:
    """A pseudo-terminal: master and slave ends with two byte streams."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.to_slave = bytearray()     # written by master, read by slave (stdin)
        self.to_master = bytearray()    # written by slave, read by master (stdout)
        self.master_open = True
        self.slave_open = True
        self.window_size = (24, 80)


class PtyMaster(KernelObject):
    """The master (user-terminal facing) end of a PTY."""

    def __init__(self, pair: PtyPair) -> None:
        super().__init__()
        self.pair = pair

    def read(self, size: int) -> bytes:
        if not self.pair.to_master:
            if not self.pair.slave_open:
                return b""
            raise FsError.eagain("no output from slave")
        data = bytes(self.pair.to_master[:size])
        del self.pair.to_master[:size]
        return data

    def write(self, data: bytes) -> int:
        if not self.pair.slave_open:
            raise FsError.epipe("slave closed")
        self.pair.to_slave.extend(data)
        return len(data)

    def poll(self) -> set[str]:
        events = {"out"}
        if self.pair.to_master:
            events.add("in")
        if not self.pair.slave_open:
            events.add("hup")
        return events

    def close(self) -> None:
        super().close()
        self.pair.master_open = False


class PtySlave(KernelObject):
    """The slave (shell facing) end of a PTY; this is the shell's controlling tty."""

    def __init__(self, pair: PtyPair) -> None:
        super().__init__()
        self.pair = pair

    def read(self, size: int) -> bytes:
        if not self.pair.to_slave:
            if not self.pair.master_open:
                return b""
            raise FsError.eagain("no input from master")
        data = bytes(self.pair.to_slave[:size])
        del self.pair.to_slave[:size]
        return data

    def write(self, data: bytes) -> int:
        if not self.pair.master_open:
            raise FsError.epipe("master closed")
        self.pair.to_master.extend(data)
        return len(data)

    def poll(self) -> set[str]:
        events = {"out"}
        if self.pair.to_slave:
            events.add("in")
        if not self.pair.master_open:
            events.add("hup")
        return events

    def close(self) -> None:
        super().close()
        self.pair.slave_open = False


def make_pty(index: int = 0) -> tuple[PtyMaster, PtySlave]:
    """``openpty(3)``."""
    pair = PtyPair(index)
    return PtyMaster(pair), PtySlave(pair)

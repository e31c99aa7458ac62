"""Pseudo-TTY forwarding between the user's terminal and the attached shell.

The paper isolates the host terminal from the container by interposing a
pseudo-TTY: the shell inside the nested namespace gets the PTY slave as its
controlling terminal, and Cntr shuttles bytes between the PTY master and the
user's real terminal.  The simulation represents the "user terminal" as an
in-memory byte stream so tests can type into it and read the shell's output.
"""

from __future__ import annotations

from repro.fs.errors import FsError
from repro.kernel.kernel import Kernel
from repro.kernel.objects import PtyMaster
from repro.kernel.process import Process


class UserTerminal:
    """The user's terminal as seen by the test/driver code."""

    def __init__(self) -> None:
        self._input = bytearray()    # what the user typed, not yet forwarded
        self._output = bytearray()   # what the shell printed, ready to display

    def type(self, text: str | bytes) -> None:
        """Simulate the user typing ``text``."""
        if isinstance(text, str):
            text = text.encode()
        self._input.extend(text)

    def take_input(self, size: int) -> bytes:
        """Consume up to ``size`` bytes of pending user input (forwarder side)."""
        data = bytes(self._input[:size])
        del self._input[:size]
        return data

    def deliver_output(self, data: bytes) -> None:
        """Append shell output for the user to read (forwarder side)."""
        self._output.extend(data)

    def read_output(self, size: int | None = None) -> bytes:
        """Read what the shell printed."""
        if size is None:
            size = len(self._output)
        data = bytes(self._output[:size])
        del self._output[:size]
        return data


class PtyForwarder:
    """Copies bytes between the user terminal and the PTY master."""

    def __init__(self, kernel: Kernel, cntr_process: Process, master_fd: int,
                 chunk_size: int = 4096) -> None:
        self.kernel = kernel
        self.cntr_process = cntr_process
        self.master_fd = master_fd
        self.chunk_size = chunk_size
        self.terminal = UserTerminal()
        self.bytes_to_shell = 0
        self.bytes_from_shell = 0
        self.closed = False

    def _master(self) -> PtyMaster:
        obj = self.cntr_process.get_fd(self.master_fd)
        if not isinstance(obj, PtyMaster):
            raise FsError.ebadf("pty master fd")
        return obj

    def pump(self) -> int:
        """One event-loop round: forward pending bytes in both directions."""
        if self.closed:
            return 0
        moved = 0
        master = self._master()
        self.kernel.clock.advance(self.kernel.costs.epoll_wait_ns)

        # User -> shell (stdin).
        pending = self.terminal.take_input(self.chunk_size)
        if pending:
            written = master.write(pending)
            self.kernel.clock.advance(int(self.kernel.costs.copy_cost(written)))
            self.bytes_to_shell += written
            moved += written

        # Shell -> user (stdout/stderr).
        while True:
            try:
                data = master.read(self.chunk_size)
            except FsError as exc:
                if exc.errno == 11:  # EAGAIN
                    break
                raise
            if not data:
                break
            self.kernel.clock.advance(int(self.kernel.costs.copy_cost(len(data))))
            self.terminal.deliver_output(data)
            self.bytes_from_shell += len(data)
            moved += len(data)
        return moved

    def close(self) -> None:
        """Stop forwarding."""
        self.closed = True

"""A deterministic virtual clock measured in nanoseconds."""

from __future__ import annotations

import heapq
from typing import Callable

_NEVER = 1 << 62


class ClockTimer:
    """A scheduled virtual-time callback (see :meth:`VirtualClock.schedule`)."""

    __slots__ = ("deadline_ns", "callback", "cancelled")

    def __init__(self, deadline_ns: int, callback: Callable[[int], None]) -> None:
        self.deadline_ns = deadline_ns
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the timer from firing (lazy: the heap entry is skipped)."""
        self.cancelled = True


class VirtualClock:
    """Monotonic virtual clock.

    The clock only moves when some component explicitly charges time against
    it, which keeps every experiment fully deterministic and independent of
    the speed of the machine running the reproduction.

    Components may also :meth:`schedule` callbacks at virtual deadlines — the
    mechanism behind the periodic writeback flusher (``kupdate``): a timer
    fires during the first ``advance`` that reaches its deadline, modelling a
    kernel thread waking concurrently with whatever charged that time.  A
    callback may itself charge time; timers coming due from such nested
    advances are fired after the running callback returns, never reentrantly,
    so dispatch order stays deterministic (deadline, then creation order).
    """

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError("clock cannot start in the past of epoch 0")
        self._now_ns = int(start_ns)
        #: (deadline, seq, timer) min-heap; seq breaks deadline ties in
        #: creation order, keeping dispatch deterministic.
        self._timers: list[tuple[int, int, ClockTimer]] = []
        self._timer_seq = 0
        self._next_deadline = _NEVER
        self._dispatching = False
        #: kind -> last serial number handed out by :meth:`next_id`.
        self._serials: dict[str, int] = {}

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_ns / 1e9

    def advance(self, delta_ns: int | float) -> int:
        """Advance the clock by ``delta_ns`` nanoseconds and return the new time.

        ``delta_ns`` must be a whole number of nanoseconds.  Integral floats
        (``200.0``, the natural result of cost-model arithmetic) are accepted;
        a fractional float raises ``ValueError`` instead of being silently
        truncated — callers that compute fractional costs floor them
        explicitly at the charge site, so sub-nanosecond remainders are
        dropped visibly there and repeated small charges (the scheduler's
        per-timeslice accounting) cannot drift against an implicit cast.
        """
        if isinstance(delta_ns, float):
            if not delta_ns.is_integer():  # also rejects nan/inf
                raise ValueError(
                    f"cannot advance clock by a fractional nanosecond delta: "
                    f"{delta_ns!r} (floor the cost at the charge site)")
            delta_ns = int(delta_ns)
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative time: {delta_ns}")
        self._now_ns += delta_ns
        if self._now_ns >= self._next_deadline:
            self._fire_due()
        return self._now_ns

    def next_id(self, kind: str) -> int:
        """The next serial number of ``kind`` (``"fs"``, ``"mount"``), from 1.

        Filesystem and mount ids are numbered per simulated machine, here
        rather than in module globals: every component of a machine holds its
        clock, and the clock is pickled with the machine's snapshot, so an
        image loaded in a fresh interpreter goes on numbering where it left
        off instead of handing out ids it already uses.
        """
        value = self._serials.get(kind, 0) + 1
        self._serials[kind] = value
        return value

    # ------------------------------------------------------------------ timers
    def schedule(self, deadline_ns: int, callback: Callable[[int], None]) -> ClockTimer:
        """Run ``callback(now_ns)`` at the first advance reaching ``deadline_ns``.

        Timers are one-shot; a periodic caller re-schedules from its callback.
        A deadline already in the past fires on the next advance (never
        synchronously inside ``schedule``), so scheduling is side-effect-free.
        """
        timer = ClockTimer(int(deadline_ns), callback)
        heapq.heappush(self._timers, (timer.deadline_ns, self._timer_seq, timer))
        self._timer_seq += 1
        if timer.deadline_ns < self._next_deadline:
            self._next_deadline = timer.deadline_ns
        return timer

    @property
    def next_timer_deadline_ns(self) -> int | None:
        """Deadline of the earliest pending (uncancelled) timer, or ``None``.

        The scheduler uses this to chunk idle jumps so periodic timers
        (kupdate) fire exactly at their deadlines rather than late at the end
        of one big advance.  Non-mutating: cancelled heap entries are skipped,
        not popped, so calling this never perturbs dispatch state.
        """
        deadlines = [deadline for deadline, _seq, timer in self._timers
                     if not timer.cancelled]
        return min(deadlines) if deadlines else None

    def _fire_due(self) -> None:
        # Reentrancy contract (audited for the scheduler): a callback may
        # schedule an *earlier* timer and then advance the clock again.  The
        # nested advance sees ``_dispatching`` and returns without firing;
        # correctness then rests on two invariants that the regression tests
        # in tests/test_sim.py lock down:
        #   * the while loop re-reads the heap top and ``_now_ns`` every
        #     iteration, so timers made due mid-dispatch (by a nested advance
        #     or a deadline-in-the-past schedule) still fire in this dispatch,
        #     in deterministic (deadline, creation) order;
        #   * the ``finally`` recomputes ``_next_deadline`` from the heap even
        #     when a callback raises, so it can never end up *above* the
        #     earliest pending deadline (stale-high would skip a fire; the
        #     harmless direction — stale-low after a cancel — only costs a
        #     spurious no-op dispatch).
        if self._dispatching:
            return              # a running callback advanced the clock
        self._dispatching = True
        try:
            while self._timers and self._timers[0][0] <= self._now_ns:
                _, _, timer = heapq.heappop(self._timers)
                if timer.cancelled:
                    continue
                timer.callback(self._now_ns)
        finally:
            self._dispatching = False
            self._next_deadline = self._timers[0][0] if self._timers else _NEVER

    def elapsed_since(self, t0_ns: int) -> int:
        """Nanoseconds elapsed since ``t0_ns``."""
        return self._now_ns - t0_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_ns={self._now_ns})"


class StopwatchRegion:
    """Context manager measuring virtual time spent inside a region."""

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self.start_ns = 0
        self.elapsed_ns = 0

    def __enter__(self) -> "StopwatchRegion":
        self.start_ns = self._clock.now_ns
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_ns = self._clock.now_ns - self.start_ns

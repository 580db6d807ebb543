"""The logical-time scheduler of the admission path, and the wall clock.

The service never reads the wall clock for *scheduling* decisions: all
deadlines, replenishments and execution finishes live on a logical
timeline (tu — the same unit the simulator traces use).

* :class:`VirtualClock` — the one scheduler of the admission path: a
  heap of (time, seq, timer) plus a ready queue of actions, advanced
  by hand.  Executors, housekeeping heartbeats, client retries and the
  fabric supervisor are timer actions — plain callables that run to
  completion at their instant — so a whole service, fabric or control
  replay run is a plain loop, deterministic under a seed: same
  arrivals, same order of actions, same trace, replayable bit for bit
  (the wall clock only ever feeds *measurement*, e.g. re-plan latency
  in seconds).
* :class:`WallClock` — the process monotonic clock mapped onto the
  logical timeline for real deployments (the gateway stamps requests
  with it).  :meth:`WallClock.drive` keeps one event-loop timer armed
  for a scheduler's next action and advances the scheduler when it
  fires.  The clock is anchored explicitly, tracks how late that timer
  fires, and runs an optional pause watchdog: a stalled event loop or
  a suspended process surfaces as a recorded :class:`ClockPause` (which
  the gateway feeds into the digital twin as a heartbeat-miss
  divergence) instead of silently warping deadlines.

Ordering rules of :meth:`VirtualClock.advance`:

* timers run in (time, registration) order, and each runs with
  ``now()`` equal to its time;
* an action that queues another action (a zero-delay timer, a retry, a
  restored shard's executors) runs it at the same instant, before time
  moves on, however long the chain;
* a cancelled timer is skipped without moving time;
* an action queued *outside* ``advance`` — a submission's first
  executor step, ``start()``'s first housekeeping arm — runs at the
  next live timer, or at the target time when none is due.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["ClockPause", "Timer", "VirtualClock", "WallClock"]

_EPS = 1e-9


class Timer:
    """One scheduled action; :meth:`cancel` drops it."""

    __slots__ = ("action", "args")

    def __init__(self, action, args: tuple) -> None:
        self.action = action
        self.args = args

    def cancel(self) -> None:
        # dropping the action (not just flagging it) frees whatever it
        # closes over, even while the timer still sits in the heap
        self.action = None
        self.args = ()


class VirtualClock:
    """A manually advanced logical clock: a timer heap plus a ready
    queue, run synchronously."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._seq = 0
        #: min-heap of (when, seq, timer)
        self._heap: list[tuple[float, int, Timer]] = []
        #: timers due now, in the order they were queued
        self._ready: deque[Timer] = deque()

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, action, *args) -> Timer:
        """Run ``action(*args)`` when the clock reaches ``when``; an
        instant at or before ``now()`` queues it on the ready queue."""
        timer = Timer(action, args)
        if when <= self._now + _EPS:
            self._ready.append(timer)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, timer))
        return timer

    def call_soon(self, action, *args) -> Timer:
        """Queue ``action(*args)`` to run at the current instant."""
        return self.call_at(self._now, action, *args)

    def _run_ready(self) -> None:
        ready = self._ready
        while ready:
            timer = ready.popleft()
            action, args = timer.action, timer.args
            if action is not None:
                timer.cancel()
                action(*args)

    def advance(self, to: float) -> None:
        """Move logical time to ``to``, running every timer due by then.

        Each live timer sets ``now()`` to its time, joins the ready
        queue and the queue runs until it is empty, so an action sees
        its own instant and may schedule earlier timers than ``to`` —
        the heap is re-examined after every one.  Time never moves
        backwards; the ready queue runs once more at the end.
        """
        heap = self._heap
        while heap and heap[0][0] <= to + _EPS:
            when, _seq, timer = heapq.heappop(heap)
            if timer.action is None:
                continue  # cancelled: nothing runs, time stays put
            self._now = max(self._now, when)
            self._ready.append(timer)
            self._run_ready()
        self._now = max(self._now, to)
        self._run_ready()

    def next_due(self) -> float | None:
        """The instant of the next action: ``now()`` while one is
        queued, else the earliest live timer's, else ``None``."""
        if any(timer.action is not None for timer in self._ready):
            return self._now
        heap = self._heap
        while heap and heap[0][2].action is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel_all(self) -> int:
        """Abandon every timer (crash simulation); returns how many
        were live."""
        live = self.pending
        for _when, _seq, timer in self._heap:
            timer.cancel()
        for timer in self._ready:
            timer.cancel()
        self._heap.clear()
        self._ready.clear()
        return live

    @property
    def pending(self) -> int:
        """Live timers only — cancelled ones don't count."""
        return sum(
            1 for _w, _s, timer in self._heap if timer.action is not None
        ) + sum(1 for timer in self._ready if timer.action is not None)


@dataclass(frozen=True)
class ClockPause:
    """A detected stall of the wall-clock event loop.

    ``at`` is the logical instant the stall was *detected* (after the
    loop resumed); ``observed`` is the logical gap the watchdog measured
    where it expected ``expected``.
    """

    at: float
    expected: float
    observed: float

    @property
    def excess(self) -> float:
        return self.observed - self.expected


class WallClock:
    """The process monotonic clock mapped onto the logical timeline.

    ``scale`` maps logical tu onto wall seconds (default: 1 tu = 1 ms,
    the emulated VM's convention).  ``start`` offsets the logical
    origin, so a restored gateway can resume its logical timeline where
    the checkpoint left off.

    The mapping is monotonic by construction (``time.monotonic`` base,
    non-decreasing guard) and observable: ``late_wakeups`` /
    ``max_lateness`` record how late the timer armed by :meth:`drive`
    fires, and :meth:`start_watchdog` samples the clock at a fixed
    logical interval, recording a :class:`ClockPause` whenever the
    observed gap exceeds a threshold — the signature of a stalled loop
    or a suspended process.
    """

    #: lateness below this many tu is ordinary scheduler jitter
    LATENESS_TOLERANCE = 0.5

    def __init__(self, scale: float = 1e-3, start: float = 0.0) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be > 0, got {scale}")
        self.scale = scale
        self.start = start
        self._origin: float | None = None
        self._last = start
        self.late_wakeups = 0
        self.max_lateness = 0.0
        self.pauses: list[ClockPause] = []
        self._pause_callbacks: list = []
        self._watchdog: asyncio.Task | None = None
        #: the loop timer armed by :meth:`drive`, and its logical instant
        self._timer: asyncio.TimerHandle | None = None
        self._armed_for: float | None = None

    def anchor(self) -> "WallClock":
        """Pin the logical origin to the current monotonic instant.

        Idempotent; ``now()`` anchors lazily on first read if this was
        never called.
        """
        if self._origin is None:
            self._origin = time.monotonic()
        return self

    def now(self) -> float:
        if self._origin is None:
            self.anchor()
        raw = self.start + (time.monotonic() - self._origin) / self.scale
        # defensive: the logical timeline never runs backwards
        self._last = max(self._last, raw)
        return self._last

    # -- driving a scheduler --------------------------------------------

    def drive(self, scheduler: VirtualClock, to: float) -> None:
        """Advance ``scheduler`` to ``to``, then keep one loop timer
        armed for its next action.

        The timer is re-armed only when that instant changes.  When it
        fires, the scheduler is advanced to the wall clock's ``now()``
        and the timer is armed again; how late it fired feeds
        ``late_wakeups`` and ``max_lateness``.
        """
        scheduler.advance(to)
        due = scheduler.next_due()
        if due == self._armed_for and self._timer is not None:
            return
        self.stop_driving()
        if due is not None:
            self._armed_for = due
            self._timer = asyncio.get_running_loop().call_later(
                max(0.0, (due - self.now()) * self.scale),
                self._fire, scheduler,
            )

    def _fire(self, scheduler: VirtualClock) -> None:
        armed_for, self._timer = self._armed_for, None
        now = self.now()
        lateness = now - armed_for
        if lateness > self.LATENESS_TOLERANCE:
            self.late_wakeups += 1
            self.max_lateness = max(self.max_lateness, lateness)
        self.drive(scheduler, now)

    def stop_driving(self) -> None:
        """Disarm the timer :meth:`drive` keeps."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._armed_for = None

    # -- pause watchdog -------------------------------------------------

    def on_pause(self, callback) -> None:
        """Register ``callback(pause: ClockPause)`` for detected stalls."""
        self._pause_callbacks.append(callback)

    def note_pause(self, pause: ClockPause) -> None:
        """Record an externally detected stall (e.g. a restart blackout)."""
        self.pauses.append(pause)
        for callback in self._pause_callbacks:
            callback(pause)

    def start_watchdog(
        self, interval: float = 5.0, threshold: float | None = None
    ) -> asyncio.Task:
        """Sample the clock every ``interval`` tu; a gap beyond
        ``threshold`` tu (default ``3 * interval``) records a pause.
        """
        if self._watchdog is not None and not self._watchdog.done():
            return self._watchdog
        bound = threshold if threshold is not None else 3.0 * interval

        async def watch() -> None:
            previous = self.now()
            while True:
                await asyncio.sleep(interval * self.scale)
                current = self.now()
                gap = current - previous
                if gap > bound:
                    self.note_pause(
                        ClockPause(at=current, expected=interval,
                                   observed=gap))
                previous = current

        self._watchdog = asyncio.get_running_loop().create_task(watch())
        return self._watchdog

    def stop_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

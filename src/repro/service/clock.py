"""Logical-time clocks driving the asyncio admission service.

The service never reads the wall clock for *scheduling* decisions: all
deadlines, replenishments and execution finishes live on a logical
timeline (tu — the same unit the simulator traces use).  Two sources
implement it:

* :class:`VirtualClock` — manually advanced.  The storm harness and the
  tests drive it, so a whole asyncio service run is deterministic under
  a seed: same arrivals, same interleavings, same trace, replayable
  bit-for-bit (the wall clock only ever feeds *measurement*, e.g.
  re-plan latency in seconds).
* :class:`WallClock` — a production mapping of the process monotonic
  clock onto the logical timeline for real deployments (the gateway
  runs on it).  It is anchored explicitly, tracks wake-up lateness, and
  runs an optional pause watchdog: a stalled event loop or a suspended
  process surfaces as a recorded :class:`ClockPause` (which the gateway
  feeds into the digital twin as a heartbeat-miss divergence) instead
  of silently warping deadlines.

``advance()`` wakes sleepers strictly in (time, registration) order and
lets the woken tasks settle between wakeups, so completions scheduled
for t=4 run — and can schedule new work — before anything at t=5 fires.
Settling lasts until nothing else on the running loop is ready, however
many loop turns a woken chain takes; the test for "nothing is ready"
reads the ready queue of CPython's ``asyncio`` event loop, so the
virtual clock needs that loop (not a replacement such as uvloop).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass

__all__ = ["ClockPause", "VirtualClock", "WallClock"]

_EPS = 1e-9


class VirtualClock:
    """A manually advanced logical clock for deterministic asyncio runs."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._seq = 0
        #: min-heap of (wake_time, seq, future)
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    async def sleep_until(self, when: float) -> None:
        """Suspend the calling task until the clock reaches ``when``."""
        if when <= self._now + _EPS:
            # still yield once: a zero sleep must not starve peers
            await asyncio.sleep(0)
            return
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._seq += 1
        heapq.heappush(self._sleepers, (when, self._seq, future))
        await future

    async def sleep(self, duration: float) -> None:
        await self.sleep_until(self._now + duration)

    @staticmethod
    async def _settle() -> None:
        """Yield until no other callback is ready to run.

        Every runnable task step sits in the CPython loop's ``_ready``
        deque; when it is empty as this task resumes, each woken task
        has reached its next await (a clock sleep, a queue, a future)
        and time may move on.
        """
        ready = asyncio.get_running_loop()._ready
        await asyncio.sleep(0)
        while ready:
            await asyncio.sleep(0)

    async def advance(self, to: float) -> None:
        """Move logical time to ``to``, waking sleepers in order.

        Each wakeup is followed by a settle phase that lasts until
        nothing else on the loop is ready, so a task woken at an
        intermediate instant observes ``now() == its wake time`` however
        long its chain of awaits, and may register earlier sleeps than
        ``to`` — the heap is re-examined after every wakeup.  A sleeper
        whose task was cancelled while suspended leaves a done future in
        the heap; those are skipped without advancing time or burning a
        settle phase.
        """
        while self._sleepers and self._sleepers[0][0] <= to + _EPS:
            when, _seq, future = heapq.heappop(self._sleepers)
            if future.done():
                # cancelled (or otherwise settled) while sleeping —
                # nothing is waiting on this wakeup anymore
                continue
            self._now = max(self._now, when)
            future.set_result(None)
            await self._settle()
        self._now = max(self._now, to)
        await self._settle()

    def cancel_all(self) -> int:
        """Abandon every sleeper (crash simulation); returns the count."""
        dropped = 0
        while self._sleepers:
            _when, _seq, future = heapq.heappop(self._sleepers)
            if not future.done():
                future.cancel()
                dropped += 1
        return dropped

    @property
    def pending(self) -> int:
        """Live sleepers only — cancelled heap entries don't count."""
        return sum(1 for _w, _s, f in self._sleepers if not f.done())


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
    ``max_lateness`` record how far :meth:`sleep_until` overshoots its
    target, and :meth:`start_watchdog` samples the clock at a fixed
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

    async def sleep_until(self, when: float) -> None:
        delta = when - self.now()
        if delta <= 0:
            # zero/negative sleeps still yield so peers aren't starved
            await asyncio.sleep(0)
        else:
            await asyncio.sleep(delta * self.scale)
        lateness = self.now() - when
        if lateness > self.LATENESS_TOLERANCE:
            self.late_wakeups += 1
            self.max_lateness = max(self.max_lateness, lateness)

    async def sleep(self, duration: float) -> None:
        await self.sleep_until(self.now() + duration)

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

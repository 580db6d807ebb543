"""The emulated RTSJ virtual machine.

A deterministic virtual-time machine substituting for the paper's
testbed (TimeSys RI on RT-Linux).  It executes
:class:`~repro.rtsj.thread.RealtimeThread` generator logic under the
:class:`~repro.rtsj.scheduler.PriorityScheduler`, delivers timer events
through modelled interrupt-service windows that preempt every thread,
enforces ``Timed`` budgets as wall-clock deadlines, and accounts
(optionally enforces) processing-group budgets.

Time is an integer nanosecond counter.  Traces are emitted in *time
units* (1 tu = 1 ms) on the shared :class:`repro.sim.trace.ExecutionTrace`
format, so the simulator's Gantt renderer and metrics work unchanged on
execution runs.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..sim.trace import ExecutionTrace, TraceEventKind
from .instructions import AwaitRelease, Compute, Sleep, WaitForNextPeriod
from .interruptible import AsynchronouslyInterruptedException
from .overhead import OverheadModel
from .params import PeriodicParameters, ProcessingGroupParameters
from .scheduler import PriorityScheduler
from .thread import RealtimeThread, ThreadState

__all__ = ["RTSJVirtualMachine", "NS_PER_UNIT"]

#: nanoseconds per trace/metric time unit (1 tu = 1 ms)
NS_PER_UNIT = 1_000_000

_READY = ThreadState.READY


class RTSJVirtualMachine:
    """Deterministic virtual-time RTSJ runtime."""

    def __init__(
        self,
        overhead: OverheadModel | None = None,
        trace: ExecutionTrace | None = None,
        timer_drift_ppm: float = 0.0,
    ) -> None:
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.trace = trace if trace is not None else ExecutionTrace()
        #: fault model: the hardware timer runs fast/slow by this many
        #: parts per million; 0 keeps exact timers (the golden path)
        self.timer_drift_ppm = timer_drift_ppm
        #: optional repro.faults.watchdog.DeadlineMissWatchdog
        self.watchdog = None
        self.scheduler = PriorityScheduler()
        self.now_ns = 0
        self._events: list[tuple[int, int, int, Callable[[int], None]]] = []
        self._seq = 0
        self._threads: list[RealtimeThread] = []
        self._busy_until_ns = 0
        self._running: RealtimeThread | None = None
        self._pgps: list[ProcessingGroupParameters] = []
        self._ran = False

    # -- construction API --------------------------------------------------------

    def schedule_event(self, time_ns: int, callback: Callable[[int], None],
                       order: int = 0) -> None:
        """Run ``callback(time_ns)`` at the given virtual time (zero cost)."""
        if time_ns < self.now_ns:
            raise ValueError(
                f"cannot schedule at {time_ns} before now={self.now_ns}"
            )
        heapq.heappush(self._events, (time_ns, order, self._seq, callback))
        self._seq += 1

    def schedule_timer_event(self, time_ns: int,
                             action: Callable[[int], None]) -> None:
        """A timer firing: charges the ISR cost, then runs ``action``.

        Under a non-zero ``timer_drift_ppm`` the firing instant is what
        the *drifting* hardware clock believes it to be.
        """
        def fire(now: int) -> None:
            self.add_isr_time(self.overhead.timer_fire_ns)
            self.trace.add_event(
                now / NS_PER_UNIT, TraceEventKind.TIMER_FIRE, "timer"
            )
            action(now)

        if self.timer_drift_ppm:
            drifted = round(time_ns * (1.0 + self.timer_drift_ppm / 1e6))
            time_ns = max(drifted, self.now_ns)
        self.schedule_event(time_ns, fire, order=2)

    def add_isr_time(self, cost_ns: int) -> None:
        """Extend the system-busy (interrupt) window by ``cost_ns``."""
        if cost_ns <= 0:
            return
        self._busy_until_ns = max(self._busy_until_ns, self.now_ns) + cost_ns

    def add_thread(self, thread: RealtimeThread) -> None:
        """Register and start a thread (ready at its release start)."""
        self._threads.append(thread)
        thread.start(self)

    def schedule_thread_start(self, thread: RealtimeThread,
                              at_ns: int) -> None:
        """Internal: called by ``RealtimeThread.start``."""
        at_ns = max(at_ns, self.now_ns)
        self.schedule_event(at_ns, lambda now, t=thread: self._begin(t), order=3)

    def register_pgp(self, pgp: ProcessingGroupParameters,
                     horizon_ns: int) -> None:
        """Track a processing group: schedule its periodic replenishments."""
        if pgp in self._pgps:
            return
        self._pgps.append(pgp)
        period = pgp.period.total_nanos
        t = pgp.start.total_nanos
        while t < horizon_ns:
            if t >= self.now_ns:
                self.schedule_event(
                    t, lambda now, g=pgp: self._replenish_pgp(now, g), order=1
                )
            t += period

    # -- thread release plumbing ---------------------------------------------------

    def release_thread(self, thread: RealtimeThread) -> None:
        """Deliver one release to a thread blocked in ``AwaitRelease`` (or
        bank it in the thread's pending count)."""
        thread.pending_releases += 1
        if (
            thread.state is ThreadState.BLOCKED
            and isinstance(thread._instruction, AwaitRelease)
        ):
            self._consume_release(thread)

    def _consume_release(self, thread: RealtimeThread) -> None:
        thread.pending_releases -= 1
        self._make_dispatchable(thread)

    # -- execution ------------------------------------------------------------------

    def run(self, until_ns: int) -> ExecutionTrace:
        """Advance virtual time to ``until_ns``; returns the trace."""
        if until_ns <= 0:
            raise ValueError(f"until_ns must be > 0, got {until_ns}")
        if self._ran:
            raise RuntimeError("a VM can only be run once")
        self._ran = True

        events = self._events
        while self.now_ns < until_ns:
            # due events fire first
            while events and events[0][0] <= self.now_ns:
                heapq.heappop(events)[3](self.now_ns)
            now = self.now_ns
            # interrupt windows block every thread
            if self._busy_until_ns > now:
                stop = self._busy_until_ns
                if events and events[0][0] < stop:
                    stop = events[0][0]
                if until_ns < stop:
                    stop = until_ns
                stop = int(stop)
                self.trace.add_segment(
                    now / NS_PER_UNIT, stop / NS_PER_UNIT, "ISR"
                )
                self.now_ns = stop
                continue
            thread = self._pick()
            if thread is None:
                if not events or events[0][0] > until_ns:
                    break
                self.now_ns = max(now, events[0][0])
                continue
            if self._busy_until_ns > now:
                # picking charged a context switch: serve the interrupt
                # window first (handled at the top of the loop)
                continue
            self._execute_slice(thread, until_ns)

        self.now_ns = min(self.now_ns, until_ns)
        self.trace.validate()
        self._retire()
        return self.trace

    def _retire(self) -> None:
        """Drop what only the finished run needs.

        A VM runs once, so its pending events can never fire and its
        threads can never resume.  The events close over this VM and its
        servers, each thread's logic and suspended generator hold the
        thread's owner, and this VM's thread list and the scheduler's
        ready set point at threads that point back at the VM: all of
        them close reference cycles.  Dropping them lets reference
        counting free the run instead of the cyclic collector.  Threads
        keep their state and parameters; servers and the trace keep
        their values.
        """
        self._events.clear()
        for thread in self._threads:
            thread.retire()
            self.scheduler.remove(thread)
        self._threads.clear()
        self._running = None

    # -- internals ---------------------------------------------------------------------

    def _begin(self, thread: RealtimeThread) -> None:
        """The thread's release instant: it becomes dispatchable; its
        logic prologue runs only when it first receives the processor."""
        self._make_dispatchable(thread)

    def _make_dispatchable(self, thread: RealtimeThread) -> None:
        """Park the thread on a zero-length compute: the kernel advances
        its generator at the next dispatch, so code between yields runs
        when the thread actually holds the processor — never while a
        higher-priority thread is running."""
        thread.set_resume_marker()
        thread.state = ThreadState.READY
        self.scheduler.make_ready(thread)

    def _replenish_pgp(self, now: int,
                       pgp: ProcessingGroupParameters) -> None:
        pgp.replenish()
        # group members throttled by enforcement become eligible again;
        # the ready queue already holds them, eligibility is re-checked
        # at dispatch

    def _pick(self) -> RealtimeThread | None:
        # a ready thread is always parked on a Compute (see
        # _make_dispatchable and _handle_instruction), so the scheduler's
        # rule alone decides: no per-thread predicate is passed
        scheduler = self.scheduler
        best = scheduler.pick()
        if best is None:
            self._running = None
            return None
        current = self._running
        if (
            current is not None
            and current is not best
            and current.state is _READY
            and (current.pgp is None or not scheduler.throttled(current))
            and not scheduler.should_preempt(best, current)
        ):
            best = current
        if best is not current and self.overhead.context_switch_ns:
            self.add_isr_time(self.overhead.context_switch_ns)
        self._running = best
        return best

    def _execute_slice(self, thread: RealtimeThread, until_ns: int) -> None:
        instr = thread._instruction
        now = self.now_ns
        deadline = instr.deadline_ns
        # a Timed deadline that already passed (e.g. covered by an ISR
        # window) interrupts before any further execution
        if deadline is not None and deadline <= now:
            self._interrupt(thread)
            return
        # the slice ends at the first of: the compute's end, the horizon,
        # the Timed deadline, the next event and the group budget
        stop = now + instr.remaining_ns
        if until_ns < stop:
            stop = until_ns
        if deadline is not None and deadline < stop:
            stop = deadline
        events = self._events
        if events and events[0][0] < stop:
            stop = events[0][0]
        pgp = thread.pgp
        if pgp is not None and pgp.enforced:
            budget_stop = now + max(pgp.budget_ns, 0)
            if budget_stop < stop:
                stop = budget_stop
        if stop > now:
            elapsed = stop - now
            instr.remaining_ns -= elapsed
            if pgp is not None:
                pgp.budget_ns -= elapsed
                if pgp.budget_ns < 0:
                    # the portion of this slice past the budget boundary
                    pgp.overrun_ns += min(elapsed, -pgp.budget_ns)
            self.trace.add_segment(
                now / NS_PER_UNIT,
                stop / NS_PER_UNIT,
                thread.name,
                thread.activity_label,
            )
            self.now_ns = stop
        if instr.remaining_ns <= 0:
            thread.advance()
            self._handle_instruction(thread)
        elif deadline is not None and deadline <= self.now_ns:
            self._interrupt(thread)
        # otherwise: preempted by an event/pgp boundary; loop re-picks

    def _interrupt(self, thread: RealtimeThread) -> None:
        instr = thread._instruction
        owner = instr.deadline_owner if isinstance(instr, Compute) else None
        thread.advance(exc=AsynchronouslyInterruptedException(owner))
        self._handle_instruction(thread)

    def _handle_instruction(self, thread: RealtimeThread) -> None:
        """Process non-compute instructions until the thread blocks,
        terminates, or parks on a Compute."""
        while True:
            instr = thread._instruction
            if thread.state is ThreadState.TERMINATED or instr is None:
                self.scheduler.remove(thread)
                thread.state = ThreadState.TERMINATED
                return
            if isinstance(instr, Compute):
                if instr.remaining_ns <= 0:
                    # zero-length compute: complete immediately
                    thread.advance()
                    continue
                thread.state = ThreadState.READY
                self.scheduler.make_ready(thread)
                return
            if isinstance(instr, WaitForNextPeriod):
                release = thread.release
                if not isinstance(release, PeriodicParameters):
                    raise RuntimeError(
                        f"thread {thread.name!r} yielded WaitForNextPeriod "
                        "without PeriodicParameters"
                    )
                period = release.period.total_nanos
                thread.next_release_ns += period
                while thread.next_release_ns < self.now_ns:
                    # overrun past a whole period: skip to the first
                    # release not in the past (a release due exactly now
                    # is still taken, as in RTSJ waitForNextPeriod)
                    thread.next_release_ns += period
                thread.state = ThreadState.BLOCKED
                self.scheduler.remove(thread)
                self.schedule_event(
                    thread.next_release_ns,
                    lambda now, t=thread: self._wake(t),
                    order=3,
                )
                return
            if isinstance(instr, Sleep):
                thread.state = ThreadState.BLOCKED
                self.scheduler.remove(thread)
                wake_at = max(instr.until_ns, self.now_ns)
                self.schedule_event(
                    wake_at, lambda now, t=thread: self._wake(t), order=3
                )
                return
            if isinstance(instr, AwaitRelease):
                if thread.pending_releases > 0:
                    thread.pending_releases -= 1
                    thread.advance()
                    continue
                thread.state = ThreadState.BLOCKED
                self.scheduler.remove(thread)
                return
            raise TypeError(f"unknown instruction {instr!r}")

    def _wake(self, thread: RealtimeThread) -> None:
        if thread.state is ThreadState.TERMINATED:
            return
        self._make_dispatchable(thread)

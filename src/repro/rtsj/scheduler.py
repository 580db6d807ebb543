"""The RTSJ base priority scheduler, emulated.

Preemptive fixed priority over the 28 real-time priorities, FIFO within
a level.  The scheduler also carries the feasibility set: RTSJ
``Schedulable`` objects join it through ``addToFeasibility`` and the
admission test delegates to :mod:`repro.analysis` (the paper's Section 3
observes that a consistent design would let each schedulable contribute
``getInterference()`` — implemented in
:class:`repro.analysis.interference.InterferenceSource`).
"""

from __future__ import annotations

from .thread import MAX_RT_PRIORITY, MIN_RT_PRIORITY, RealtimeThread, Schedulable

__all__ = ["PriorityScheduler"]


class PriorityScheduler:
    """Preemptive fixed-priority dispatcher with a feasibility set."""

    def __init__(self) -> None:
        # kept in arrival order: a re-readied thread goes to the back
        self._ready: list[RealtimeThread] = []
        self.feasibility_set: list[Schedulable] = []

    # -- ready-queue management ---------------------------------------------------

    def make_ready(self, thread: RealtimeThread) -> None:
        """Add a thread to the ready set (idempotent)."""
        if thread in self._ready:
            return
        self._check_priority(thread)
        self._ready.append(thread)

    def remove(self, thread: RealtimeThread) -> None:
        """Drop a thread from the ready set if present."""
        if thread in self._ready:
            self._ready.remove(thread)

    def pick(self, eligible=None) -> RealtimeThread | None:
        """Highest priority, FIFO within a level; ``None`` when idle.

        A thread :meth:`throttled` by its processing group stays ready
        but is not picked.  ``eligible`` optionally filters the ready set
        further.
        """
        best = None
        for thread in self._ready:
            if (
                (best is None or thread.priority > best.priority)
                and (thread.pgp is None or not self.throttled(thread))
                and (eligible is None or eligible(thread))
            ):
                best = thread
        return best

    @staticmethod
    def throttled(thread: RealtimeThread) -> bool:
        """True while the thread's processing group is enforced and its
        budget is exhausted: it may not run until the group replenishes."""
        pgp = thread.pgp
        return pgp is not None and pgp.enforced and pgp.exhausted

    def should_preempt(self, candidate: RealtimeThread,
                       running: RealtimeThread) -> bool:
        """Fixed priority: strictly higher priority preempts."""
        return candidate.priority > running.priority

    @property
    def ready_threads(self) -> list[RealtimeThread]:
        """A snapshot of the ready set (dispatch order not implied)."""
        return list(self._ready)

    # -- feasibility ------------------------------------------------------------------

    def add_to_feasibility(self, schedulable: Schedulable) -> None:
        """RTSJ ``addToFeasibility``: include in the analysed task set."""
        if schedulable not in self.feasibility_set:
            self.feasibility_set.append(schedulable)

    def remove_from_feasibility(self, schedulable: Schedulable) -> None:
        """RTSJ ``removeFromFeasibility``."""
        if schedulable in self.feasibility_set:
            self.feasibility_set.remove(schedulable)

    @staticmethod
    def _check_priority(thread: RealtimeThread) -> None:
        if not MIN_RT_PRIORITY <= thread.priority <= MAX_RT_PRIORITY:
            raise ValueError(
                f"thread {thread.name!r} priority {thread.priority} outside "
                f"[{MIN_RT_PRIORITY}, {MAX_RT_PRIORITY}]"
            )

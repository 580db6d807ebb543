"""On-line admission control for aperiodic events (paper Sections 2 & 7).

The paper separates the off-line feasibility of the periodic tasks (and
the server) from the *on-line* feasibility of each aperiodic arrival: at
the arrival instant, with the server at the highest priority, the event's
response time can be computed and its execution "possibly cancelled" if
a deadline would be missed.  The constant-time variant relies on the
Section 7 bucket queue.

Two controllers are provided:

* :class:`BucketAdmissionController` — wraps a bucket-mode
  :class:`~repro.core.polling.PollingTaskServer`; O(1) per decision
  (equation (5));
* :class:`IdealPSAdmissionController` — the analytic test of
  equations (1)-(4) over an explicit backlog, for the standard policy.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..rtsj.time_types import NS_PER_UNIT, RelativeTime
from .response_time import ideal_ps_response_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import ServableAsyncEvent, ServableAsyncEventHandler
    from .polling import PollingTaskServer

__all__ = [
    "AdmissionDecision",
    "BucketAdmissionController",
    "BucketLedger",
    "BucketSlot",
    "IdealPSAdmissionController",
]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission test."""

    accepted: bool
    predicted_response_time: float
    relative_deadline: float

    @property
    def margin(self) -> float:
        """Slack between deadline and predicted response (negative when
        rejected)."""
        return self.relative_deadline - self.predicted_response_time


class BucketAdmissionController:
    """O(1) admission against a bucket-mode Polling task server."""

    def __init__(self, server: PollingTaskServer) -> None:
        if server.queue_kind != "bucket":
            raise ValueError(
                "admission control requires a bucket-queue PollingTaskServer"
            )
        self.server = server
        self.decisions: list[AdmissionDecision] = []

    def test(self, cost: RelativeTime,
             relative_deadline: RelativeTime) -> AdmissionDecision:
        """Would an event of ``cost`` fired *now* meet the deadline?"""
        predicted_ns = self.server.predict_response_time_ns(cost.total_nanos)
        decision = AdmissionDecision(
            accepted=predicted_ns <= relative_deadline.total_nanos,
            predicted_response_time=predicted_ns / NS_PER_UNIT,
            relative_deadline=relative_deadline.total_nanos / NS_PER_UNIT,
        )
        self.decisions.append(decision)
        return decision

    def fire_if_admitted(
        self,
        event: ServableAsyncEvent,
        handler: ServableAsyncEventHandler,
        relative_deadline: RelativeTime,
    ) -> AdmissionDecision:
        """Admission-gated firing: fire ``event`` only when ``handler``'s
        predicted response time meets the deadline."""
        decision = self.test(handler.cost, relative_deadline)
        if decision.accepted:
            event.fire()
        return decision

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of tested events admitted so far."""
        if not self.decisions:
            return 1.0
        return sum(d.accepted for d in self.decisions) / len(self.decisions)


@dataclass(frozen=True)
class BucketSlot:
    """Where one admitted event landed in the Section 7 bucket queue.

    ``instance`` is the server instance (bucket) index serving the event,
    ``before`` the cumulative cost claimed ahead of it inside that bucket
    and ``finish`` the predicted absolute completion instant.
    """

    instance: int
    before: float
    cost: float
    finish: float


class BucketLedger:
    """Pure-arithmetic Section 7 bucket queue for *online* admission.

    The VM-attached :class:`BucketAdmissionController` answers equation
    (5) against a live ``PollingTaskServer``; this ledger answers the
    same question with nothing but the server parameters and a running
    tail — the state an admission *service* keeps between requests.
    Admission and completion are O(1); a schedule repair rebuilds the
    tail from a caller-supplied backlog (O(n) in backlog size, not in
    elapsed time — no re-simulation from t=0).

    The model is the paper's worst-case polling shape: an instance ``k``
    opens at ``start + k*period`` and serves its bucket contiguously from
    that instant (the server is required to sit at the highest priority),
    so an event placed at (instance, before) finishes at
    ``start + k*period + before + cost``.  Events admitted mid-instance
    join the *next* instance — the non-resumable polling pessimism.
    """

    def __init__(self, capacity: float, period: float,
                 start: float = 0.0) -> None:
        if capacity <= 0 or period <= 0 or capacity > period:
            raise ValueError("need 0 < capacity <= period")
        self.capacity = capacity
        self.period = period
        self.start = start
        self._tail_instance = 0
        self._tail_fill = 0.0
        #: total declared cost admitted and not yet completed/shed
        self.backlog_demand = 0.0
        self.backlog_count = 0

    def _first_instance_at(self, now: float) -> int:
        """The earliest instance that can serve an arrival at ``now``."""
        if now <= self.start:
            return 0
        return int(math.ceil((now - self.start) / self.period - 1e-12))

    def instance_start(self, instance: int) -> float:
        return self.start + instance * self.period

    def peek(self, now: float, cost: float) -> BucketSlot:
        """The slot an event of ``cost`` would get *now*, without
        mutating the ledger; O(1)."""
        if cost <= 0:
            raise ValueError(f"cost must be > 0, got {cost}")
        if cost > self.capacity:
            raise ValueError("cost exceeds the server capacity")
        instance, fill = self._tail_instance, self._tail_fill
        floor = self._first_instance_at(now)
        if instance < floor:
            instance, fill = floor, 0.0
        if fill + cost > self.capacity + 1e-12:
            instance, fill = instance + 1, 0.0
        return BucketSlot(
            instance=instance, before=fill, cost=cost,
            finish=self.instance_start(instance) + fill + cost,
        )

    def place(self, slot: BucketSlot) -> None:
        """Commit a slot previously returned by :meth:`peek`; O(1)."""
        self._tail_instance = slot.instance
        self._tail_fill = slot.before + slot.cost
        self.backlog_demand += slot.cost
        self.backlog_count += 1

    def admit(self, now: float, cost: float) -> BucketSlot:
        """Peek-and-place in one step; O(1)."""
        slot = self.peek(now, cost)
        self.place(slot)
        return slot

    def release(self, cost: float) -> None:
        """An admitted event left the backlog (served or shed); O(1).

        While work is still outstanding the tail placement is left
        alone — capacity already claimed in past or current buckets
        stays claimed, the conservative reading of equation (5).  Once
        the backlog empties there is no outstanding claim left to
        protect, so the tail resets; otherwise a long-running service
        would push every future prediction monotonically later (the
        floor clamp in :meth:`peek` keeps the reset sound).
        """
        self.backlog_demand = max(0.0, self.backlog_demand - cost)
        self.backlog_count = max(0, self.backlog_count - 1)
        if self.backlog_count == 0:
            self._tail_instance = 0
            self._tail_fill = 0.0
            self.backlog_demand = 0.0

    def rebuild(self, now: float,
                backlog: list[tuple[str, float]]) -> dict[str, BucketSlot]:
        """Re-place ``backlog`` — ``(key, cost)`` pairs in the caller's
        desired service order — from scratch starting at ``now``.

        This is the schedule-repair primitive: the tail is reset to the
        first instance that can still serve, every surviving event is
        re-bucketed in order and the new slots are returned keyed by the
        caller's keys.  O(len(backlog)).
        """
        self._tail_instance = self._first_instance_at(now)
        self._tail_fill = 0.0
        self.backlog_demand = 0.0
        self.backlog_count = 0
        return {key: self.admit(now, cost) for key, cost in backlog}

    def state(self) -> dict:
        """JSON-ready snapshot of the ledger (checkpoint/hash input)."""
        return {
            "capacity": self.capacity,
            "period": self.period,
            "start": self.start,
            "tail_instance": self._tail_instance,
            "tail_fill": round(self._tail_fill, 9),
            "backlog_demand": round(self.backlog_demand, 9),
            "backlog_count": self.backlog_count,
        }


class IdealPSAdmissionController:
    """Analytic admission for the standard (resumable) Polling Server.

    Maintains an explicit deadline-ordered backlog of admitted events;
    suited to simulator-side studies and to validating the equations
    against :class:`~repro.sim.servers.polling.IdealPollingServer` runs.
    """

    def __init__(self, capacity: float, period: float,
                 start: float = 0.0) -> None:
        if capacity <= 0 or period <= 0 or capacity > period:
            raise ValueError("need 0 < capacity <= period")
        self.capacity = capacity
        self.period = period
        self.start = start
        #: admitted backlog as (cost, absolute_deadline) pairs
        self.backlog: list[tuple[float, float]] = []
        self.decisions: list[AdmissionDecision] = []

    def server_capacity_at(self, t: float, consumed_in_instance: float) -> float:
        """Remaining capacity ``cs(t)`` given how much of the current
        instance's budget has been consumed."""
        if consumed_in_instance < 0 or consumed_in_instance > self.capacity:
            raise ValueError("consumed_in_instance out of range")
        return self.capacity - consumed_in_instance

    def test(self, now: float, cost: float, relative_deadline: float,
             cs_t: float) -> AdmissionDecision:
        """Admission test at time ``now``; admitted events join the
        backlog (their demand counts against later arrivals)."""
        deadline = now + relative_deadline
        predicted = ideal_ps_response_time(
            release=now,
            pending=self.backlog,
            cost=cost,
            deadline=deadline,
            cs_t=cs_t,
            capacity=self.capacity,
            period=self.period,
            start=self.start,
        )
        decision = AdmissionDecision(
            accepted=predicted <= relative_deadline,
            predicted_response_time=predicted,
            relative_deadline=relative_deadline,
        )
        self.decisions.append(decision)
        if decision.accepted:
            insort(self.backlog, (cost, deadline), key=lambda cd: cd[1])
        return decision

    def complete(self, cost: float, deadline: float) -> bool:
        """An admitted event finished (or was shed): remove its backlog
        entry so its demand no longer delays newcomers.  Returns whether
        an entry was actually removed."""
        try:
            self.backlog.remove((cost, deadline))
        except ValueError:
            return False
        return True

    def expire(self, now: float) -> None:
        """Drop backlog entries whose deadline has passed (their demand
        no longer delays newcomers)."""
        self.backlog = [(c, d) for c, d in self.backlog if d > now]

"""Common machinery for aperiodic task servers (ideal, literature form).

A server is an :class:`~repro.sim.engine.Entity` competing for the
processor at a fixed priority, holding a FIFO queue of pending
:class:`~repro.sim.task.AperiodicJob` and a capacity account whose
management distinguishes the policies (paper Section 2).

Unlike the RTSJ implementations of ``repro.core``, the servers here have
the exact literature semantics: handlers are *resumable* (a job partially
served in one server instance continues in the next) and there is no
runtime overhead.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import deque
from typing import TYPE_CHECKING

from ..engine import EPS, Entity, Simulation
from ..task import AperiodicJob, JobState
from ..trace import TraceEventKind
from ...workload.spec import ServerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...faults.enforcement import EnforcementConfig
    from ...overload.breaker import CircuitBreaker
    from ...overload.config import OverloadConfig
    from ...overload.detector import OverloadDetector

__all__ = ["AperiodicServer"]


def _density(job: AperiodicJob) -> float:
    """D-OVER-style value density (value per declared tu; default 1)."""
    cost = max(job.declared_cost, 1e-12)
    value = job.value if job.value is not None else cost
    return value / cost


class AperiodicServer(Entity):
    """Base class: FIFO pending queue + capacity account.

    ``enforcement`` (see :mod:`repro.faults.enforcement`) optionally
    bounds each job to its *declared* cost: without it a mis-declared
    job simply drains capacity for longer (the literature behaviour);
    with it the configured overrun policy applies.  Either way a server
    can never consume more than its capacity per period — the account
    enforces that invariant itself.
    """

    def __init__(self, spec: ServerSpec, name: str | None = None,
                 enforcement: "EnforcementConfig | None" = None,
                 overload: "OverloadConfig | None" = None) -> None:
        self.spec = spec
        self.name = name if name is not None else type(self).__name__
        self.priority = spec.priority
        self.enforcement = enforcement
        #: overload management (queue bound / degraded modes); None keeps
        #: golden-path behaviour byte-identical
        self.overload = overload
        #: replenished-capacity multiplier, set by degraded-mode actions
        self.service_scale = 1.0
        #: optional :class:`repro.overload.CircuitBreaker` gating this
        #: server's arrivals (the sim arm's per-source breaker)
        self.breaker: "CircuitBreaker | None" = None
        #: optional :class:`repro.overload.OverloadDetector`
        self.overload_detector: "OverloadDetector | None" = None
        #: jobs shed by the queue bound / breaker / degraded mode
        self.shed: list[AperiodicJob] = []
        self.pending: deque[AperiodicJob] = deque()
        self.capacity: float = 0.0
        self.completed: list[AperiodicJob] = []
        self.submitted: list[AperiodicJob] = []
        #: jobs cut or shed by overrun enforcement
        self.enforced: list[AperiodicJob] = []
        self._shed_pending = 0
        #: (time, capacity) breakpoints — the capacity curve the paper's
        #: figures chart alongside the schedule
        self.capacity_history: list[tuple[float, float]] = []
        self._sim: Simulation | None = None

    # -- wiring --------------------------------------------------------------

    def attach(self, sim: Simulation, horizon: float) -> None:
        """Register with a simulation and schedule periodic bookkeeping."""
        self._sim = sim
        sim.register_entity(self)
        self._schedule_housekeeping(sim, horizon)
        self.record_capacity(0.0)

    def record_capacity(self, now: float) -> None:
        """Append a (time, capacity) breakpoint (deduplicated)."""
        point = (now, self.capacity)
        if not self.capacity_history or self.capacity_history[-1] != point:
            self.capacity_history.append(point)

    def capacity_at(self, t: float) -> float:
        """Last recorded capacity at or before ``t`` (staircase view)."""
        value = 0.0
        for time, capacity in self.capacity_history:
            if time > t + 1e-12:
                break
            value = capacity
        return value

    @abstractmethod
    def _schedule_housekeeping(self, sim: Simulation, horizon: float) -> None:
        """Schedule activations / replenishments up to ``horizon``."""

    def submit(self, now: float, job: AperiodicJob) -> None:
        """Arrival hook: pass as handler to ``Simulation.submit_aperiodic``."""
        if self._sim is None:
            raise RuntimeError(
                f"server {self.name!r} is not attached to a simulation"
            )
        self.submitted.append(job)
        if self._shed_pending > 0:
            # skip-next-release recovery: the arrival is shed outright
            self._shed_pending -= 1
            job.state = JobState.ABORTED
            job.finish_time = now
            self.enforced.append(job)
            self._sim.trace.add_event(
                now, TraceEventKind.FAULT, job.name,
                "release shed (skip-next-release)",
            )
            return
        if self.breaker is not None and not self.breaker.allow(now):
            # rejected at the source: no RELEASE, no queue churn (and no
            # record_failure — a gate rejection is not a probe failure)
            job.state = JobState.ABORTED
            job.finish_time = now
            self.shed.append(job)
            self._sim.trace.add_event(
                now, TraceEventKind.SHED, job.name,
                f"breaker open ({self.breaker.name})",
            )
            return
        detector = self.overload_detector
        if detector is not None:
            detector.note_arrival(now, job.declared_cost)
            if detector.degraded and getattr(job, "optional", False):
                self._shed_job(now, job, "optional handler (degraded mode)")
                return
        self.pending.append(job)
        self._sim.trace.add_event(now, TraceEventKind.RELEASE, job.name)
        if self._enforce_queue_bound(now, job):
            return
        self._on_arrival(now, job)

    def _enforce_queue_bound(self, now: float, newcomer: AperiodicJob) -> bool:
        """Shed per the configured bound; True when ``newcomer`` was shed."""
        bound = self.overload.queue_bound if self.overload else None
        if bound is None or not bound.active:
            return False

        def over() -> bool:
            if bound.max_items is not None and len(self.pending) > bound.max_items:
                return True
            if bound.max_cost is not None:
                total = sum(j.declared_cost for j in self.pending)
                if total > bound.max_cost + EPS:
                    return True
            return False

        newcomer_shed = False
        while self.pending and over():
            if bound.policy == "reject-new":
                victim = newcomer
            elif bound.policy == "drop-oldest":
                victim = self.pending[0]
            else:  # drop-lowest-value
                victim = min(self.pending, key=_density)
            self.pending.remove(victim)
            self._shed_job(now, victim, f"queue bound ({bound.policy})")
            newcomer_shed = newcomer_shed or victim is newcomer
            if bound.policy == "reject-new":
                break
        return newcomer_shed

    def _shed_job(self, now: float, job: AperiodicJob, detail: str) -> None:
        """Record one shed as a first-class decision."""
        assert self._sim is not None
        job.state = JobState.ABORTED
        if job.finish_time is None:
            job.finish_time = now
        self.shed.append(job)
        self._sim.trace.add_event(now, TraceEventKind.SHED, job.name, detail)
        if self.overload_detector is not None:
            self.overload_detector.note_shed(now)
        if self.breaker is not None:
            self.breaker.record_failure(now)

    def _on_arrival(self, now: float, job: AperiodicJob) -> None:
        """Policy hook: a job just joined the pending queue."""

    # -- Entity protocol ------------------------------------------------------

    def ready(self, now: float) -> bool:
        return bool(self.pending) and self.capacity > EPS

    def _enforcement_left(self, job: AperiodicJob) -> float | None:
        """Remaining declared-cost budget, or ``None`` when no cutting
        enforcement applies to this server."""
        config = self.enforcement
        if config is None or not config.cuts_execution:
            return None
        executed = job.cost - job.remaining
        return config.budget_for(job.declared_cost) - executed

    def budget(self, now: float) -> float:
        if not self.pending:
            return 0.0
        job = self.pending[0]
        base = min(job.remaining, self.capacity)
        if self.enforcement is not None:
            left = self._enforcement_left(job)
            if left is not None:
                base = min(base, max(left, 0.0))
        return base

    def current_job_label(self) -> str | None:
        return self.pending[0].name if self.pending else None

    def consume(self, start: float, duration: float, sim: Simulation) -> None:
        job = self.pending[0]
        if job.start_time is None:
            job.start_time = start
            sim.trace.add_event(start, TraceEventKind.START, job.name)
        job.consume(duration)
        self.capacity = max(0.0, self.capacity - duration)
        self.record_capacity(start + duration)
        config = self.enforcement
        if (
            config is not None
            and not config.cuts_execution
            and not getattr(job, "_overrun_logged", False)
            and job.cost - job.remaining
                > config.budget_for(job.declared_cost) + EPS
        ):
            job._overrun_logged = True  # type: ignore[attr-defined]
            sim.record_overrun(
                start + duration, job.name,
                f"budget={config.budget_for(job.declared_cost):g}",
            )

    def on_budget_exhausted(self, now: float, sim: Simulation) -> None:
        job = self.pending[0]
        if job.remaining <= EPS:
            self.pending.popleft()
            job.state = JobState.COMPLETED
            job.finish_time = now
            self.completed.append(job)
            sim.trace.add_event(now, TraceEventKind.COMPLETION, job.name)
            if self.breaker is not None:
                self.breaker.record_success(now)
        else:
            left = self._enforcement_left(job)
            if left is not None and left <= EPS:
                self._enforce_overrun(now, job, sim)
        if self.capacity <= EPS:
            sim.trace.add_event(
                now, TraceEventKind.CAPACITY_EXHAUSTED, self.name
            )
            self._on_capacity_exhausted(now)
        elif not self.pending:
            self._on_idle(now)

    def _enforce_overrun(self, now: float, job: AperiodicJob,
                         sim: Simulation) -> None:
        """Apply the configured overrun policy to the head job."""
        config = self.enforcement
        assert config is not None and config.cuts_execution
        self.pending.popleft()
        job.finish_time = now
        self.enforced.append(job)
        sim.record_overrun(
            now, job.name,
            f"policy={config.policy} "
            f"budget={config.budget_for(job.declared_cost):g}",
        )
        if config.completes_on_cut:
            job.state = JobState.COMPLETED
            self.completed.append(job)
            sim.trace.add_event(now, TraceEventKind.COMPLETION, job.name)
        else:
            job.state = JobState.ABORTED
            job.interrupted = True
            sim.trace.add_event(
                now, TraceEventKind.ABORT, job.name, "cost overrun"
            )
            if self.breaker is not None:
                self.breaker.record_failure(now)
        if config.sheds_next:
            self._shed_pending += 1

    def _on_capacity_exhausted(self, now: float) -> None:
        """Policy hook: the capacity account just hit zero."""

    def _on_idle(self, now: float) -> None:
        """Policy hook: the queue drained while capacity remains."""

    # -- bookkeeping helpers ---------------------------------------------------

    def _replenish(self, now: float, amount: float, cap: float | None = None) -> None:
        limit = cap if cap is not None else self.spec.capacity
        self.capacity = min(limit, self.capacity + amount)
        self.record_capacity(now)
        assert self._sim is not None
        self._sim.trace.add_event(
            now, TraceEventKind.REPLENISH, self.name,
            f"capacity={self.capacity:g}",
        )

    # -- metrics ---------------------------------------------------------------

    @property
    def served_ratio(self) -> float:
        """Fraction of submitted jobs completed (ASR numerator/denominator)."""
        if not self.submitted:
            return 1.0
        return len(self.completed) / len(self.submitted)

    @property
    def response_times(self) -> list[float]:
        """Response times of all completed jobs, in completion order."""
        out: list[float] = []
        for job in self.completed:
            rt = job.response_time
            assert rt is not None
            out.append(rt)
        return out

"""The multicore discrete-event kernel: *m* identical cores, one clock.

Generalises :class:`repro.sim.engine.Simulation` from one processor to
``n_cores`` identical ones.  All cores share a single virtual clock and a
single timed-callback queue; at every decision point a
:class:`~repro.smp.policies.MulticorePolicy` maps the ready set onto the
cores, and time advances to the next global decision point — the earliest
of any running entity's budget exhaustion or the next timed callback.

The entity protocol is unchanged: periodic-task adapters and the ideal
task servers of :mod:`repro.sim.servers` attach to a
:class:`MulticoreSimulation` exactly as they do to the uniprocessor
kernel (an entity still occupies at most one core at a time, which is the
only execution model a sequential job has).  Two things are new:

* segments carry the ``core`` that executed them, and the trace invariant
  becomes per-core non-overlap;
* when a still-live entity is re-dispatched on a different core than the
  one it last ran on, a :attr:`~repro.sim.trace.TraceEventKind.MIGRATION`
  event is recorded — migrations are first-class observable behaviour on
  this kernel, alongside OVERRUN/FAULT/WATCHDOG.

Determinism matches the uniprocessor kernel: ties are broken by explicit
``order`` then insertion sequence in the callback queue, and by the
policy's documented rank/affinity/registration tie-break at dispatch.
Per Grolleau et al. (arXiv:1305.3849) the resulting schedule of a
synchronous periodic set is itself periodic with the hyperperiod, a
property the test suite checks.
"""

from __future__ import annotations

import math
from typing import Callable, TYPE_CHECKING

from ..sim.engine import (
    EPS,
    KERNEL_MODES,
    Entity,
    EventQueue,
    PeriodicTaskEntity,
)
from ..sim.task import Job, JobState, PeriodicJob, PeriodicTask
from ..sim.trace import ExecutionTrace, TraceEventKind
from ..workload.spec import PeriodicTaskSpec
from .policies import MulticorePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig

__all__ = ["MulticoreSimulation"]


class MulticoreSimulation:
    """A simulation run over ``n_cores`` identical processors.

    Typical use::

        sim = MulticoreSimulation(GlobalEDFPolicy(), n_cores=4)
        for spec in taskset:
            sim.add_periodic_task(spec)
        sim.run(until=100)

    With ``n_cores=1`` and a global policy the kernel degenerates to the
    uniprocessor semantics (segments additionally carry ``core=0``).
    """

    def __init__(
        self,
        policy: MulticorePolicy,
        n_cores: int,
        trace: ExecutionTrace | None = None,
        on_deadline_miss: str = "continue",
        enforcement: "EnforcementConfig | None" = None,
        monitors: "list | None" = None,
        kernel: str = "auto",
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        if on_deadline_miss not in ("continue", "abort"):
            raise ValueError(
                "on_deadline_miss must be 'continue' or 'abort', "
                f"got {on_deadline_miss!r}"
            )
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        self.policy = policy
        self.n_cores = n_cores
        self.on_deadline_miss = on_deadline_miss
        #: this kernel keeps the full-ready-set dispatch (the policy's
        #: assign() needs every ready entity); ``kernel`` only switches
        #: between lazy (auto) and eager (reference) release
        #: scheduling, both byte-identical by the suborder argument
        self.kernel = kernel
        self.enforcement = enforcement
        self.watchdog = None
        if monitors:
            # opt-in runtime verification (see repro.verify); off =
            # byte-identical golden path
            if trace is not None:
                raise ValueError(
                    "pass either trace= or monitors=, not both"
                )
            from ..verify.invariants import MonitoredTrace

            trace = MonitoredTrace(list(monitors))
        elif trace is None:
            trace = ExecutionTrace()
        self.trace = trace
        self.queue = EventQueue()
        self.entities: list[Entity] = []
        self.now = 0.0
        self._running: list[Entity | None] = [None] * n_cores
        #: id(entity) -> core it last executed on
        self._last_core: dict[int, int] = {}
        self._ran = False
        self.periodic_tasks: list[PeriodicTask] = []
        self.aperiodic_jobs: list[Job] = []
        self._pending_periodic: list[
            tuple[PeriodicTask, PeriodicTaskEntity, float | None]
        ] = []
        self.segment_observers: list[Callable[[float, float, Entity], None]] = []
        #: total MIGRATION events recorded
        self.migrations = 0

    # -- construction ------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Add a processor competitor (registration order breaks ties)."""
        if self._ran:
            raise RuntimeError("cannot register entities after run()")
        if getattr(entity, "_sim", "unbound") is None:
            entity._sim = self  # type: ignore[attr-defined]
        self.entities.append(entity)

    def add_periodic_task(self, spec: PeriodicTaskSpec,
                          horizon: float | None = None) -> PeriodicTask:
        """Register a periodic task; releases are pre-scheduled up to the
        horizon given here or to :meth:`run`'s ``until``."""
        task = PeriodicTask(spec)
        entity = PeriodicTaskEntity(task)
        self.register_entity(entity)
        self.periodic_tasks.append(task)
        self._pending_periodic.append((task, entity, horizon))
        return task

    def submit_aperiodic(self, job: Job,
                         handler: Callable[[float, Job], None]) -> None:
        """Schedule ``handler(now, job)`` at the job's release time."""
        self.aperiodic_jobs.append(job)
        self.queue.schedule(
            job.release, lambda now, j=job: handler(now, j), order=5
        )

    def schedule_at(self, time: float, callback: Callable[[float], None],
                    order: int = 0) -> None:
        """Schedule an arbitrary timed callback."""
        self.queue.schedule(time, callback, order)

    # -- execution ---------------------------------------------------------

    def run(self, until: float) -> ExecutionTrace:
        """Advance virtual time to ``until`` and return the trace."""
        if until <= 0:
            raise ValueError(f"until must be > 0, got {until}")
        if self._ran:
            raise RuntimeError("a MulticoreSimulation can only be run once")
        self._ran = True
        self._schedule_periodic_releases(until)

        while self.now < until - EPS:
            self._drain_due_events()
            assignment = self._pick(self.now)
            next_evt = self.queue.peek_time()
            if not assignment:
                # all cores idle: jump to the next event, or finish
                if next_evt is None or next_evt > until + EPS:
                    break
                self.now = max(self.now, next_evt)
                continue
            budgets = {
                core: entity.budget(self.now)
                for core, entity in assignment.items()
            }
            degenerate = [
                core for core, budget in budgets.items() if budget <= EPS
            ]
            if degenerate:
                # zero-budget entities change state immediately; re-pick
                for core in degenerate:
                    assignment[core].on_budget_exhausted(self.now, self)
                continue
            slice_end = min(
                until,
                next_evt if next_evt is not None else math.inf,
                min(self.now + b for b in budgets.values()),
            )
            if slice_end > self.now + EPS:
                for core in sorted(assignment):
                    entity = assignment[core]
                    entity.consume(self.now, slice_end - self.now, self)
                    self.trace.add_segment(
                        self.now, slice_end, entity.name,
                        entity.current_job_label(), core=core,
                    )
                    for observer in self.segment_observers:
                        observer(self.now, slice_end, entity)
                previous = self.now
                self.now = slice_end
                for core in sorted(assignment):
                    if abs(slice_end - (previous + budgets[core])) <= EPS:
                        assignment[core].on_budget_exhausted(slice_end, self)

        self.now = min(max(self.now, until), until)
        finish_monitors = getattr(self.trace, "finish_monitors", None)
        if finish_monitors is not None:
            finish_monitors(self.now)
        self.trace.validate()
        return self.trace

    # -- internals ----------------------------------------------------------

    def _drain_due_events(self) -> None:
        queue = self.queue
        heap = queue._heap
        now = self.now
        while True:
            batch = queue.pop_batch_due(now)
            if not batch:
                return
            i = 0
            n = len(batch)
            while i < n:
                batch[i][4](now)
                i += 1
                # preserve one-at-a-time ordering when a callback
                # schedules a same-instant event sorting before the rest
                # of the batch (see Simulation._drain_due_events)
                if i < n and heap and heap[0] < batch[i]:
                    for entry in batch[i:]:
                        queue.push_entry(entry)
                    break

    def _pick(self, now: float) -> dict[int, Entity]:
        ready = [e for e in self.entities if e.ready(now)]
        assignment = (
            self.policy.assign(now, ready, self.n_cores, list(self._running))
            if ready else {}
        )
        assigned_ids = {id(e) for e in assignment.values()}
        if len(assigned_ids) != len(assignment):
            raise AssertionError(
                f"{self.policy.name} assigned one entity to several cores"
            )
        # preemptions: a previously-running, still-ready entity that lost
        # every core
        for core, current in enumerate(self._running):
            if (
                current is not None
                and id(current) not in assigned_ids
                and current.ready(now)
            ):
                current.on_preempted(now, self)
                label = current.current_job_label() or current.name
                self.trace.add_event(now, TraceEventKind.PREEMPTION, label)
        # dispatches and migrations
        for core in sorted(assignment):
            entity = assignment[core]
            if self._running[core] is entity:
                continue
            last = self._last_core.get(id(entity))
            if last is not None and last != core:
                self.migrations += 1
                label = entity.current_job_label() or entity.name
                self.trace.add_event(
                    now, TraceEventKind.MIGRATION, label,
                    f"{last}->{core}",
                )
            entity.on_dispatched(now, self)
            self._last_core[id(entity)] = core
        self._running = [assignment.get(c) for c in range(self.n_cores)]
        return assignment

    def _schedule_periodic_releases(self, until: float) -> None:
        if self.kernel == "reference":
            for task, entity, horizon in self._pending_periodic:
                limit = horizon if horizon is not None else until
                instance = 0
                while True:
                    release = task.spec.offset + instance * task.spec.period
                    if release >= limit - EPS:
                        break
                    job = task.release_job(instance)
                    self.queue.schedule(
                        release,
                        lambda now, e=entity, j=job: e.release(now, j, self),
                        order=4,
                    )
                    deadline = job.deadline
                    assert deadline is not None
                    self.queue.schedule(
                        deadline,
                        lambda now, j=job: self._check_deadline(now, j),
                        order=9,
                    )
                    instance += 1
            return
        # lazy path: O(tasks) live periodic heap entries; byte-identical
        # to the eager path via suborder (see Simulation's counterpart)
        for index, (task, entity, horizon) in enumerate(self._pending_periodic):
            limit = horizon if horizon is not None else until
            self._schedule_next_release(task, entity, 0, limit, index)

    def _schedule_next_release(self, task: PeriodicTask,
                               entity: PeriodicTaskEntity, instance: int,
                               limit: float, index: int) -> None:
        release = task.spec.offset + instance * task.spec.period
        if release >= limit - EPS:
            return
        self.queue.schedule(
            release,
            lambda now: self._lazy_release(now, task, entity, instance,
                                           limit, index),
            order=4, suborder=index,
        )

    def _lazy_release(self, now: float, task: PeriodicTask,
                      entity: PeriodicTaskEntity, instance: int,
                      limit: float, index: int) -> None:
        job = task.release_job(instance)
        deadline = job.deadline
        assert deadline is not None
        self.queue.schedule(
            deadline,
            lambda t, j=job: self._check_deadline(t, j),
            order=9, suborder=index,
        )
        self._schedule_next_release(task, entity, instance + 1, limit, index)
        entity.release(now, job, self)

    def record_overrun(self, now: float, subject: str, detail: str = "") -> None:
        """Record a cost overrun on the trace and notify the watchdog."""
        self.trace.add_event(now, TraceEventKind.OVERRUN, subject, detail)
        if self.watchdog is not None:
            self.watchdog.notify_overrun(now, subject)

    def _check_deadline(self, now: float, job: Job) -> None:
        if job.done:
            return
        self.trace.add_event(now, TraceEventKind.DEADLINE_MISS, job.name)
        if self.watchdog is not None:
            self.watchdog.notify_miss(now, job.name)
        if self.on_deadline_miss == "abort" and isinstance(job, PeriodicJob):
            job.state = JobState.ABORTED
            job.finish_time = now
            self.trace.add_event(
                now, TraceEventKind.ABORT, job.name, "deadline expired"
            )
            owner = getattr(job, "_owner_entity", None)
            if owner is not None:
                owner.remove_queued_job(job, self)
                return
            for entity in self.entities:  # pragma: no cover - legacy path
                if (
                    isinstance(entity, PeriodicTaskEntity)
                    and entity.remove_queued_job(job, self)
                ):
                    break

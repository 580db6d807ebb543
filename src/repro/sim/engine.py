"""RTSS discrete-event kernel.

The simulator models a single preemptive processor shared by *entities*
(periodic tasks, task servers, standalone jobs).  A pluggable
:class:`SchedulingPolicy` selects which ready entity holds the processor;
the kernel advances virtual time from decision point to decision point:

* the next scheduled timed callback (a release, a replenishment, ...), or
* the running entity exhausting its *budget* (job completion, server
  capacity exhaustion).

All state changes happen through timed callbacks and budget-exhaustion
hooks, which keeps the kernel itself policy-agnostic and fully
deterministic: ties are broken by an explicit ``order``, then ``suborder``,
then by insertion sequence.

One performance knob (see docs/performance.md): ``kernel=``.
``"auto"`` (default) uses the incrementally-maintained ready index for
plain fixed-priority policies and lazy periodic-release scheduling, both
of which are byte-identical to the reference semantics by construction;
``"reference"`` forces the historical O(n) rebuild-everything path (the
oracle the equivalence tests compare against).
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, TYPE_CHECKING

from .task import Job, JobState, PeriodicJob, PeriodicTask
from .trace import ExecutionTrace, TraceEventKind
from ..workload.spec import PeriodicTaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig

__all__ = [
    "EPS",
    "KERNEL_MODES",
    "EventQueue",
    "Entity",
    "SchedulingPolicy",
    "PeriodicTaskEntity",
    "Simulation",
]

#: tolerance for floating-point time comparison
EPS = 1e-9

#: accepted values of the ``kernel=`` knob
KERNEL_MODES = ("auto", "reference")

# members resolved once at import: the per-release entity hot paths
# record thousands of these per run
_RELEASE = TraceEventKind.RELEASE
_START = TraceEventKind.START
_COMPLETION = TraceEventKind.COMPLETION
_PENDING = JobState.PENDING
_COMPLETED = JobState.COMPLETED


class EventQueue:
    """A deterministic time-ordered callback queue.

    Callbacks scheduled for the same instant run in ascending ``order``,
    then ``suborder``, then in insertion sequence.  ``order`` lets callers
    pin down semantics such as "budget accounting before replenishment
    before releases"; ``suborder`` lets lazily-scheduled callbacks of one
    family reproduce the tie-break an eager scheduler would have produced
    (the lazy periodic-release path keys it by task registration index).
    """

    def __init__(self) -> None:
        self._heap: list[
            tuple[float, int, int, int, Callable[[float], None]]
        ] = []
        self._seq = 0

    def schedule(self, time: float, callback: Callable[[float], None],
                 order: int = 0, suborder: int = 0) -> None:
        """Schedule ``callback(time)`` to run at ``time``."""
        if not math.isfinite(time):
            raise ValueError(
                f"cannot schedule at non-finite time: {time} "
                "(NaN and infinity are not valid instants)"
            )
        if time < -EPS:
            raise ValueError(f"cannot schedule in negative time: {time}")
        heapq.heappush(self._heap, (time, order, suborder, self._seq, callback))
        self._seq += 1

    def peek_time(self) -> float | None:
        """Time of the earliest pending callback, or ``None`` if empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> Callable[[float], None] | None:
        """Pop the earliest callback if it is due at ``now`` (within EPS)."""
        if self._heap and self._heap[0][0] <= now + EPS:
            return heapq.heappop(self._heap)[4]
        return None

    def __len__(self) -> int:
        return len(self._heap)


class Entity(ABC):
    """Anything that can compete for the processor."""

    #: larger numbers mean higher priority (fixed-priority policies)
    priority: int = 0
    name: str = "entity"
    #: True when the entity notifies its kernel on every readiness change
    #: (see :meth:`PeriodicTaskEntity._queue_changed`), allowing the
    #: kernel to keep it in the incrementally-maintained ready index
    #: instead of re-polling it at every decision point
    kernel_indexable: bool = False
    #: registration position, assigned by :meth:`Simulation.register_entity`
    _kernel_index: int = 0

    @abstractmethod
    def ready(self, now: float) -> bool:
        """True when the entity wants the processor at ``now``."""

    @abstractmethod
    def budget(self, now: float) -> float:
        """Longest contiguous slice the entity can run before an internal
        state change (completion, capacity exhaustion)."""

    @abstractmethod
    def consume(self, start: float, duration: float, sim: "Simulation") -> None:
        """Charge ``duration`` of processor time beginning at ``start``."""

    @abstractmethod
    def on_budget_exhausted(self, now: float, sim: "Simulation") -> None:
        """Called when the entity ran its full declared budget."""

    def current_job_label(self) -> str | None:
        """Label of the activation being run (for the trace), if any."""
        return None

    def current_deadline(self, now: float) -> float:
        """Absolute deadline of the head activation (EDF policies)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose deadlines"
        )

    def on_preempted(self, now: float, sim: "Simulation") -> None:
        """Hook: the entity lost the processor while still ready."""

    def on_dispatched(self, now: float, sim: "Simulation") -> None:
        """Hook: the entity just received the processor."""


class SchedulingPolicy(ABC):
    """Chooses among ready entities and decides preemption."""

    name: str = "policy"

    @abstractmethod
    def select(self, now: float, ready: list[Entity]) -> Entity | None:
        """Pick the entity to run (``ready`` is in registration order)."""

    @abstractmethod
    def preempts(self, candidate: Entity, running: Entity, now: float) -> bool:
        """True if ``candidate`` must displace ``running``."""


class PeriodicTaskEntity(Entity):
    """Adapter presenting a periodic task's pending jobs to the kernel.

    Jobs are served in release order; under a schedulable configuration at
    most one job is pending at a time, but backlogged activations queue up
    rather than being lost, and each missed deadline is recorded.
    """

    kernel_indexable = True

    def __init__(self, task: PeriodicTask) -> None:
        self.task = task
        self.name = task.name
        self.priority = task.priority
        self._queue: deque[PeriodicJob] = deque()
        #: releases still to shed after a skip-next-release overrun
        self._shed_pending = 0
        self._sim: "Simulation | None" = None  # bound at registration
        #: ready-index bookkeeping (see Simulation._entity_queue_changed)
        self._in_ready_heap = False

    def ready(self, now: float) -> bool:
        return bool(self._queue)

    def _queue_changed(self, sim: "Simulation | None") -> None:
        """Tell the owning kernel the pending queue just mutated."""
        notify = getattr(sim, "_entity_queue_changed", None)
        if notify is not None:
            notify(self)

    def _enforcement_left(self, job: PeriodicJob,
                          sim: "Simulation") -> float | None:
        """Remaining enforcement budget of the head job, or ``None`` when
        no cutting enforcement applies."""
        config = sim.enforcement
        if config is None or not config.cuts_execution:
            return None
        executed = job.cost - job.remaining
        return config.budget_for(job.budgeted_cost) - executed

    def budget(self, now: float) -> float:
        if not self._queue:
            return 0.0
        job = self._queue[0]
        sim = self._sim
        if sim is not None:
            left = self._enforcement_left(job, sim)
            if left is not None:
                return min(job.remaining, max(left, 0.0))
        return job.remaining

    def current_job_label(self) -> str | None:
        return self._queue[0].name if self._queue else None

    def current_deadline(self, now: float) -> float:
        if not self._queue:
            raise ValueError(f"{self.name} has no pending job")
        deadline = self._queue[0].deadline
        assert deadline is not None  # periodic jobs always carry deadlines
        return deadline

    def consume(self, start: float, duration: float, sim: "Simulation") -> None:
        job = self._queue[0]
        if job.start_time is None:
            job.start_time = start
            sim.trace.add_event(start, _START, job.name)
        job.consume(duration)
        config = sim.enforcement
        if (
            config is not None
            and not config.cuts_execution
            and not getattr(job, "_overrun_logged", False)
            and job.cost - job.remaining
                > config.budget_for(job.budgeted_cost) + EPS
        ):
            # log-and-continue: flag the crossing once, never cut
            job._overrun_logged = True  # type: ignore[attr-defined]
            sim.record_overrun(
                start + duration, job.name,
                f"budget={config.budget_for(job.budgeted_cost):g}",
            )

    def on_budget_exhausted(self, now: float, sim: "Simulation") -> None:
        job = self._queue[0]
        if job.remaining > EPS:
            # a cutting enforcement policy exhausted the declared budget
            # before the job's true demand did
            self._enforce_overrun(now, job, sim)
            return
        self._queue.popleft()
        self._queue_changed(sim)
        job.state = _COMPLETED
        job.finish_time = now
        sim.trace.add_event(now, _COMPLETION, job.name)

    def _enforce_overrun(self, now: float, job: PeriodicJob,
                         sim: "Simulation") -> None:
        config = sim.enforcement
        assert config is not None and config.cuts_execution
        self._queue.popleft()
        self._queue_changed(sim)
        job.finish_time = now
        sim.record_overrun(
            now, job.name,
            f"policy={config.policy} "
            f"budget={config.budget_for(job.budgeted_cost):g}",
        )
        if config.completes_on_cut:
            job.state = JobState.COMPLETED
            sim.trace.add_event(now, TraceEventKind.COMPLETION, job.name)
        else:
            job.state = JobState.ABORTED
            sim.trace.add_event(
                now, TraceEventKind.ABORT, job.name, "cost overrun"
            )
        if config.sheds_next:
            self._shed_pending += 1

    def release(self, now: float, job: PeriodicJob, sim: "Simulation") -> None:
        """Timed callback: a new activation arrives."""
        job._owner_entity = self  # type: ignore[attr-defined]
        if self._shed_pending > 0:
            self._shed_pending -= 1
            job.state = JobState.ABORTED
            job.finish_time = now
            sim.trace.add_event(
                now, TraceEventKind.FAULT, job.name,
                "release shed (skip-next-release)",
            )
            return
        job.state = _PENDING
        self._queue.append(job)
        self._queue_changed(sim)
        sim.trace.add_event(now, _RELEASE, job.name)

    def remove_queued_job(self, job: PeriodicJob,
                          sim: "Simulation") -> bool:
        """Drop one pending job (firm-deadline abort); True when removed.

        The head is removed in O(1); mid-queue removal (a backlogged
        activation expiring behind the head) takes one linear pass of the
        deque, which is the indexed-removal path ``collections.deque``
        offers."""
        queue = self._queue
        if not queue:
            return False
        if queue[0] is job:
            queue.popleft()
        else:
            try:
                queue.remove(job)
            except ValueError:
                return False
        self._queue_changed(sim)
        return True


# canonical PeriodicTaskEntity hooks, stashed so code that inlines one
# can tell when it has been replaced (tests patch them to inject bugs;
# instrumentation may wrap them) and fall back to calling the method:
# the lazy release chain checks _EXACT_RELEASE, and the benchmark's
# span-wrapper self-test checks that wrapping leaves consume() as
# _EXACT_CONSUME
_EXACT_RELEASE = PeriodicTaskEntity.release
_EXACT_CONSUME = PeriodicTaskEntity.consume


class Simulation:
    """A single-processor simulation run.

    Typical use::

        sim = Simulation(FixedPriorityPolicy())
        sim.add_periodic_task(PeriodicTaskSpec("t1", cost=2, period=6, priority=5))
        server = IdealPollingServer(ServerSpec(4, 6, priority=10))
        sim.attach_server(server)
        sim.submit_aperiodic(AperiodicJob("h1", release=0, cost=2))
        sim.run(until=60)
    """

    def __init__(self, policy: SchedulingPolicy,
                 trace: ExecutionTrace | None = None,
                 on_deadline_miss: str = "continue",
                 enforcement: "EnforcementConfig | None" = None,
                 kernel: str = "auto") -> None:
        if on_deadline_miss not in ("continue", "abort"):
            raise ValueError(
                "on_deadline_miss must be 'continue' (soft: late jobs keep "
                f"running) or 'abort' (firm: drop them), got {on_deadline_miss!r}"
            )
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        self.policy = policy
        self.on_deadline_miss = on_deadline_miss
        self.kernel = kernel
        #: cost-overrun enforcement applied to periodic entities (see
        #: repro.faults.enforcement); None = paper-faithful golden path
        self.enforcement = enforcement
        #: optional repro.faults.watchdog.DeadlineMissWatchdog
        self.watchdog = None
        self.trace = trace if trace is not None else ExecutionTrace()
        self.queue = EventQueue()
        self.entities: list[Entity] = []
        self.now = 0.0
        self._running: Entity | None = None
        self._ran = False
        self.periodic_tasks: list[PeriodicTask] = []
        self.aperiodic_jobs: list[Job] = []
        self._pending_periodic: list[
            tuple[PeriodicTask, PeriodicTaskEntity, float | None]
        ] = []
        #: callbacks invoked as fn(start, end, entity) after every
        #: executed processor slice (used by exchange-based servers)
        self.segment_observers: list[Callable[[float, float, Entity], None]] = []
        # -- ready-index state (see _entity_queue_changed) ----------------
        #: True when the FP ready index replaces the reference scan
        self._indexed = False
        self._ready_heap: list = []
        self._volatile: list[Entity] = []

    # -- construction ------------------------------------------------------

    def register_entity(self, entity: Entity) -> None:
        """Add a processor competitor (registration order breaks ties)."""
        if self._ran:
            raise RuntimeError("cannot register entities after run()")
        entity._kernel_index = len(self.entities)
        if getattr(entity, "_sim", "unbound") is None:
            # entities that track their simulation (periodic adapters,
            # detached servers) are bound here
            entity._sim = self  # type: ignore[attr-defined]
        self.entities.append(entity)

    def add_periodic_task(self, spec: PeriodicTaskSpec,
                          horizon: float | None = None) -> PeriodicTask:
        """Register a periodic task; releases are scheduled up to the
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
            raise RuntimeError("a Simulation can only be run once")
        self._ran = True
        self._setup_ready_index()
        self._schedule_periodic_releases(until)
        self._run_main(until)
        # clip the clock to the horizon for reporting purposes
        self.now = min(max(self.now, until), until)
        self.trace.validate()
        self._retire()
        return self.trace

    def _retire(self) -> None:
        """Drop what only the finished run needs.

        A simulation runs once, so its pending callbacks can never fire
        and no entity will consult it again.  The callbacks (bound to
        servers) and each entity's ``_sim`` link close reference cycles
        with this kernel; cutting them lets reference counting free the
        run instead of the cyclic collector.  Entities, jobs and the
        trace keep their values.
        """
        self.queue._heap.clear()
        for entity in self.entities:
            if getattr(entity, "_sim", None) is self:
                entity._sim = None  # type: ignore[attr-defined]

    def _run_main(self, until: float) -> None:
        """The decision loop (any policy, servers, enforcement).

        Heavily-read state is aliased to locals; the local clock ``now``
        is written back to ``self.now`` before any entity/observer code
        can observe it.
        """
        heap = self.queue._heap
        add_segment = self.trace.add_segment
        observers = self.segment_observers
        drain = self._drain_due_events
        pick = self._pick
        horizon = until - EPS
        now = self.now
        while now < horizon:
            if heap and heap[0][0] <= now + EPS:
                drain()
            runner = pick(now)
            next_evt = heap[0][0] if heap else None
            if runner is None:
                # processor idle: jump to the next event, or finish
                if next_evt is None or next_evt > until + EPS:
                    break
                if next_evt > now:
                    now = next_evt
                    self.now = now
                continue
            budget = runner.budget(now)
            if budget <= EPS:
                # degenerate budget: treat as immediately exhausted
                runner.on_budget_exhausted(now, self)
                continue
            end = now + budget
            slice_end = end if end < until else until
            if next_evt is not None and next_evt < slice_end:
                slice_end = next_evt
            if slice_end > now + EPS:
                runner.consume(now, slice_end - now, self)
                add_segment(
                    now, slice_end, runner.name,
                    runner.current_job_label(),
                )
                for observer in observers:
                    observer(now, slice_end, runner)
                now = slice_end
                self.now = now
            if -EPS <= now - end <= EPS:
                runner.on_budget_exhausted(now, self)
            # loop: events due now are drained at the top, then reselection

    # -- internals ----------------------------------------------------------

    def _drain_due_events(self) -> None:
        # one at a time: a callback may schedule a same-instant event
        # that sorts before the other due entries, and it runs next
        heap = self.queue._heap
        now = self.now
        limit = now + EPS
        heappop = heapq.heappop
        while heap and heap[0][0] <= limit:
            heappop(heap)[4](now)

    # -- ready index --------------------------------------------------------

    def _setup_ready_index(self) -> None:
        """Choose and seed the incremental ready index for this run.

        The index is used for plain :class:`FixedPriorityPolicy` runs in
        ``auto`` mode, where selection is provably identical to the
        reference scan: highest priority, first-registered on ties.  Any
        other policy — EDF, or a subclass or patched policy whose hooks
        the kernel cannot see through — keeps the reference
        rebuild-and-select path.  A system without indexable entities
        (servers only, as every paper system) is indexed too: its index
        stays empty and each decision polls the volatile entities, which
        makes the reference scan's choice without building its list.
        """
        if self.kernel == "reference":
            return
        from .schedulers.fp import FixedPriorityPolicy

        policy_type = type(self.policy)
        if not (
            policy_type is FixedPriorityPolicy
            and policy_type.select is FixedPriorityPolicy._exact_select
            and policy_type.preempts is FixedPriorityPolicy._exact_preempts
        ):
            return
        self._volatile = [e for e in self.entities if not e.kernel_indexable]
        self._indexed = True
        for entity in self.entities:
            if entity.kernel_indexable:
                entity._fp_key = (  # type: ignore[attr-defined]
                    -entity.priority, entity._kernel_index
                )
                if entity.ready(self.now):
                    self._entity_queue_changed(entity)

    def _entity_queue_changed(self, entity: Entity) -> None:
        """Ready-index notification: ``entity``'s pending queue mutated.

        Indexable entities call this on every queue change (dirty-flag
        style): stale heap entries are invalidated here and lazily
        discarded by :meth:`_peek_indexed`, so the index never disagrees
        with the entities' actual readiness at a decision point.
        """
        if not self._indexed:
            return
        if entity._queue and not entity._in_ready_heap:  # type: ignore[attr-defined]
            entity._in_ready_heap = True  # type: ignore[attr-defined]
            heapq.heappush(
                self._ready_heap,
                (entity._fp_key, entity),  # type: ignore[attr-defined]
            )

    def _peek_indexed(self, now: float) -> Entity | None:
        """Best ready indexable entity, discarding stale heap entries."""
        heap = self._ready_heap
        while heap:
            entity = heap[0][1]
            if entity._queue:
                return entity
            heapq.heappop(heap)
            entity._in_ready_heap = False
        return None

    def _pick(self, now: float) -> Entity | None:
        if not self._indexed:
            ready = [e for e in self.entities if e.ready(now)]
            if not ready:
                self._switch(None, now)
                return None
            candidate = self.policy.select(now, ready)
        else:
            candidate = self._peek_indexed(now) if self._ready_heap else None
            for entity in self._volatile:
                if entity.ready(now) and (
                    candidate is None
                    or entity.priority > candidate.priority
                    or (
                        entity.priority == candidate.priority
                        and entity._kernel_index < candidate._kernel_index
                    )
                ):
                    candidate = entity
            if candidate is None:
                self._switch(None, now)
                return None
        current = self._running
        if (
            current is not None
            and current.ready(now)
            and candidate is not current
            and not self.policy.preempts(candidate, current, now)
        ):
            candidate = current
        self._switch(candidate, now)
        return candidate

    def _switch(self, entity: Entity | None, now: float) -> None:
        if entity is self._running:
            return
        if self._running is not None and self._running.ready(now):
            self._running.on_preempted(now, self)
            label = self._running.current_job_label() or self._running.name
            self.trace.add_event(now, TraceEventKind.PREEMPTION, label)
        self._running = entity
        if entity is not None:
            entity.on_dispatched(now, self)

    # -- periodic release scheduling ----------------------------------------

    def _schedule_periodic_releases(self, until: float) -> None:
        if self.kernel == "reference":
            self._schedule_periodic_releases_eager(until)
            return
        # lazy path: only each task's *next* release lives in the heap
        # (plus the deadline sentinels of already-released jobs), so the
        # heap holds O(tasks) periodic entries instead of
        # O(tasks * horizon/period).  Tie-breaks reproduce the eager
        # schedule exactly: eager assigns sequence numbers task-major, so
        # at any shared instant releases (and, separately, deadline
        # checks) fire in task registration order — which is precisely
        # the ``suborder`` used here.
        for index, (task, entity, horizon) in enumerate(self._pending_periodic):
            limit = horizon if horizon is not None else until
            self._schedule_next_release(task, entity, 0, limit, index)

    def _schedule_periodic_releases_eager(self, until: float) -> None:
        """Reference path: pre-schedule every release over the horizon."""
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

    def _schedule_next_release(self, task: PeriodicTask,
                               entity: PeriodicTaskEntity, instance: int,
                               limit: float, index: int) -> None:
        """Arm the task's lazy release chain starting at ``instance``.

        One closure per task is created here and *re-pushed* for every
        subsequent release (its instance counter lives in a cell), so the
        steady state allocates no new callbacks.  The closure performs
        the whole release: create the job, arm its deadline sentinel,
        push the next release, then deliver the activation — an inline
        of :meth:`PeriodicTaskEntity.release` with the shed branch kept
        on the cold path.
        """
        offset = task._offset
        period = task._period
        release = offset + instance * period
        if release >= limit - EPS:
            return
        cell = [instance]
        queue = self.queue
        heap = queue._heap
        add_event = self.trace.add_event
        notify = self._entity_queue_changed
        entity_queue = entity._queue
        release_job = task.release_job
        horizon = limit - EPS
        heappush = heapq.heappush

        def fire(now: float) -> None:
            inst = cell[0]
            job = release_job(inst)
            queue.schedule(
                job.deadline,  # type: ignore[arg-type]
                lambda t, j=job: self._check_deadline(t, j),
                order=9, suborder=index,
            )
            nxt = offset + (inst + 1) * period
            if nxt < horizon:
                # push directly: the instant is spec-derived and finite,
                # so schedule()'s validation is redundant on this path
                cell[0] = inst + 1
                heappush(heap, (nxt, 4, index, queue._seq, fire))
                queue._seq += 1
            if type(entity).release is not _EXACT_RELEASE:
                # release() was overridden or patched: honour it
                entity.release(now, job, self)
                return
            job._owner_entity = entity  # type: ignore[attr-defined]
            if entity._shed_pending > 0:
                entity._shed_pending -= 1
                job.state = JobState.ABORTED
                job.finish_time = now
                add_event(
                    now, TraceEventKind.FAULT, job.name,
                    "release shed (skip-next-release)",
                )
                return
            job.state = _PENDING
            entity_queue.append(job)
            notify(entity)
            add_event(now, _RELEASE, job.name)

        queue.schedule(release, fire, order=4, suborder=index)

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
            # firm semantics: the expired activation is abandoned so it
            # cannot push later activations past their own deadlines
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

"""``TaskServer`` — the framework's abstract server (paper Section 3).

A task server "implements ``Schedulable`` and extends ``Scheduler``": it
is itself a schedulable object (a periodic budget at a priority, which
``addToFeasibility`` can include in the analysis) *and* a scheduler of
the :class:`~repro.core.events.ServableAsyncEventHandler` releases routed
to it by ``ServableAsyncEvent.fire()``.

Concrete policies (:class:`~repro.core.polling.PollingTaskServer`,
:class:`~repro.core.deferrable.DeferrableTaskServer`) decide how releases
are chosen and what ``Timed`` budget each one gets; the shared
:meth:`_serve_release` helper here performs the actual guarded execution
and bookkeeping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generator, TYPE_CHECKING

from ..rtsj.instructions import Compute, Instruction
from ..rtsj.interruptible import Interruptible, Timed
from ..rtsj.thread import RealtimeThread, Schedulable
from ..rtsj.time_types import RelativeTime
from ..rtsj.vm import NS_PER_UNIT, RTSJVirtualMachine
from ..sim.metrics import RunMetrics, measure_run
from ..sim.task import AperiodicJob, JobState
from ..sim.trace import TraceEventKind
from .events import HandlerRelease, ServableAsyncEventHandler
from .parameters import TaskServerParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig
    from ..overload.config import OverloadConfig
    from ..overload.detector import OverloadDetector

__all__ = ["TaskServer"]


class _WorkInterruptible(Interruptible):
    """Adapts one release of a handler with custom ``work`` to the
    ``Timed`` protocol."""

    def __init__(self, release: HandlerRelease) -> None:
        self.release = release

    def run(self, timed: Timed) -> Generator[Instruction, Any, None]:
        yield from self.release.handler.work()


class TaskServer(Schedulable, ABC):
    """Abstract aperiodic task server over the emulated RTSJ runtime."""

    def __init__(self, params: TaskServerParameters, name: str,
                 enforcement: "EnforcementConfig | None" = None,
                 overload: "OverloadConfig | None" = None) -> None:
        super().__init__(scheduling=params.scheduling, release=params)
        self.params = params
        self.name = name
        #: cost-overrun enforcement against *declared* handler costs —
        #: the RTSJ cost-enforcement semantics the paper's testbed VM
        #: lacked, mirrored here (see repro.faults.enforcement).  None
        #: keeps the paper-faithful behaviour: the only budget is the
        #: server capacity via Timed.
        self.enforcement = enforcement
        #: count of upcoming releases to shed (skip-next-release policy);
        #: server-level, like the ideal arm: the overload response sheds
        #: the next arrival routed to this server, whichever handler
        self._shed_pending = 0
        self.vm: RTSJVirtualMachine | None = None
        self.horizon_ns: int | None = None
        self.handlers: list[ServableAsyncEventHandler] = []
        #: the same handlers as a set, for O(1) ownership checks
        self._handler_set: set[ServableAsyncEventHandler] = set()
        #: handlers declared costlier than the capacity (never serveable
        #: by a PS; serveable by a DS only through the refill bridge)
        self.oversized_handlers: list[ServableAsyncEventHandler] = []
        #: every release routed to this server, in arrival order
        self.releases: list[HandlerRelease] = []
        #: (time tu, capacity tu) breakpoints of the budget account —
        #: the capacity curve the paper's figures chart
        self.capacity_history: list[tuple[float, float]] = []
        #: overload management (bounded pending queue + degraded modes);
        #: None keeps golden-path behaviour byte-identical
        self.overload = overload
        #: replenished-capacity multiplier, set by degraded-mode actions
        #: (see repro.overload.detector.ServiceScaleAction); 1.0 = full
        self.service_scale = 1.0
        #: optional :class:`repro.overload.OverloadDetector` observing
        #: this server's arrivals and sheds
        self.overload_detector: "OverloadDetector | None" = None
        #: releases shed by the queue bound / degraded mode, in order
        self.shed_releases: list[HandlerRelease] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, vm: RTSJVirtualMachine, horizon_ns: int) -> None:
        """Bind to a VM and install the policy's threads and timers."""
        if self.vm is not None:
            raise RuntimeError(f"server {self.name!r} already attached")
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be > 0, got {horizon_ns}")
        self.vm = vm
        self.horizon_ns = horizon_ns
        self._install(vm, horizon_ns)

    @abstractmethod
    def _install(self, vm: RTSJVirtualMachine, horizon_ns: int) -> None:
        """Create the policy's backing thread(s) and timers."""

    def register_handler(self, handler: ServableAsyncEventHandler) -> None:
        """Associate a handler with this server (called by the SAEH
        constructor; a handler has exactly one server).

        The paper requires designers to split event treatments into
        handlers no costlier than the server capacity; an oversized
        handler is *accepted* here but — like in the Java implementation
        — ``chooseNextEvent`` will simply never pick it (a Polling Server
        can never fit it; a Deferrable Server may still serve it through
        the end-of-period bridge if it fits twice the capacity).  The
        ``oversized_handlers`` list records them for diagnosis.
        """
        if handler not in self._handler_set:
            self._handler_set.add(handler)
            self.handlers.append(handler)
            if handler.cost_ns > self.params.capacity_ns:
                self.oversized_handlers.append(handler)

    # -- overload plumbing --------------------------------------------------------

    def _queue_bound_kwargs(self) -> dict:
        """The configured queue bound as pending-queue constructor kwargs
        (tu costs converted to the core layer's nanoseconds)."""
        bound = self.overload.queue_bound if self.overload else None
        if bound is None or not bound.active:
            return {}
        return {
            "max_items": bound.max_items,
            "max_cost_ns": (
                round(bound.max_cost * NS_PER_UNIT)
                if bound.max_cost is not None else None
            ),
            "policy": bound.policy,
        }

    @property
    def scaled_capacity_ns(self) -> int:
        """The replenished capacity under the current service scale.

        Never scaled below the costliest admissible handler: this
        runtime's handlers are not resumable, so a capacity under every
        declared cost would starve the server outright instead of
        degrading it — degraded mode must stay live.
        """
        if self.service_scale == 1.0:
            return self.params.capacity_ns
        scaled = max(1, round(self.params.capacity_ns * self.service_scale))
        floor = max(
            (
                h.cost_ns for h in self.handlers
                if h.cost_ns <= self.params.capacity_ns
            ),
            default=0,
        )
        if floor:
            # the Timed budget must strictly exceed the handler's
            # consumed time (inflation included) — an exact tie resolves
            # as an interrupt, not a completion
            inflation = self.vm.overhead.handler_inflation_ns if self.vm else 0
            floor += inflation + 1
        return min(self.params.capacity_ns, max(scaled, floor))

    def _shed_release(self, release: HandlerRelease, detail: str) -> None:
        """Record one shed as a first-class decision: SHED trace event,
        aborted job, detector + source-breaker feedback."""
        vm = self._require_vm()
        now = vm.now_ns / NS_PER_UNIT
        release.job.state = JobState.ABORTED
        if release.job.finish_time is None:
            release.job.finish_time = now
        vm.trace.add_event(
            now, TraceEventKind.SHED, release.job.name, detail
        )
        self.shed_releases.append(release)
        if self.overload_detector is not None:
            self.overload_detector.note_shed(now)
        source = release.source
        if source is not None and source.breaker is not None:
            source.breaker.record_failure(now)

    # -- the framework entry point ------------------------------------------------

    def servable_event_released(
        self,
        handler: ServableAsyncEventHandler,
        source=None,
    ) -> None:
        """Called by ``ServableAsyncEvent.fire()`` for each bound SAEH."""
        if handler not in self._handler_set:
            raise ValueError(
                f"handler {handler.name!r} is not associated with server "
                f"{self.name!r}"
            )
        vm = self.vm or self._require_vm()
        vm.add_isr_time(vm.overhead.release_ns)
        release = HandlerRelease(handler, vm.now_ns)
        release.source = source
        self.releases.append(release)
        now = vm.now_ns / NS_PER_UNIT
        if self._shed_pending > 0:
            # skip-next-release recovery: shed this arrival outright
            self._shed_pending -= 1
            release.job.state = JobState.ABORTED
            release.job.finish_time = now
            vm.trace.add_event(
                now, TraceEventKind.FAULT,
                release.job.name, "release shed (skip-next-release)",
            )
            return
        detector = self.overload_detector
        if detector is not None:
            detector.note_arrival(now, release.cost_ns / NS_PER_UNIT)
            if detector.degraded and handler.optional:
                self._shed_release(release, "optional handler (degraded mode)")
                return
        vm.trace.add_event(now, TraceEventKind.RELEASE, release.job.name)
        self._enqueue(release)

    @abstractmethod
    def _enqueue(self, release: HandlerRelease) -> None:
        """Policy hook: queue the release (and wake the server if needed).
        Implementations shed over-bound or unserveable releases through
        :meth:`_shed_release`."""

    # -- feasibility ------------------------------------------------------------------

    def add_to_feasibility(self) -> None:
        """RTSJ-style registration with the base scheduler's analysis set."""
        self._require_vm().scheduler.add_to_feasibility(self)

    def interference_ns(self, window_ns: int) -> int:
        """Worst-case interference this server inflicts on lower-priority
        work over a window — the ``getInterference()`` method the paper
        argues every schedulable should expose (Section 3)."""
        raise NotImplementedError

    # -- serving machinery ----------------------------------------------------------------

    def _serve_release(
        self,
        thread: RealtimeThread,
        release: HandlerRelease,
        budget_ns: int,
    ) -> Generator[Instruction, Any, tuple[bool, int]]:
        """Run one release under a ``Timed`` budget; returns (ok, elapsed).

        ``elapsed`` is the wall-clock time spent inside the interruptible
        section — the quantity the paper's implementation measures to
        decrease the server capacity.  The dispatch overhead is charged
        to the server thread *outside* the section, exactly as
        ``chooseNextEvent`` and the ``Timed`` setup execute outside
        ``run()`` in the Java implementation.
        """
        vm = self.vm or self._require_vm()
        overhead = vm.overhead
        if overhead.dispatch_ns:
            yield Compute(overhead.dispatch_ns)
        job = release.job
        start_ns = vm.now_ns
        if job.start_time is None:
            job.start_time = start_ns / NS_PER_UNIT
            vm.trace.add_event(
                start_ns / NS_PER_UNIT, TraceEventKind.START, job.name
            )
        self._on_serve_start(start_ns, release)
        thread.activity_label = job.name
        handler = release.handler
        inflation_ns = overhead.handler_inflation_ns
        # enforcement narrows the Timed budget to the *declared* cost
        # (inflation included, so a well-behaved handler is never cut by
        # runtime overhead alone); the capacity budget still caps it
        config = self.enforcement
        enforce_ns: int | None = None
        effective_ns = budget_ns
        if config is not None and config.cuts_execution:
            enforce_ns = (
                round(config.budget_for(handler.cost_ns)) + inflation_ns
            )
            effective_ns = min(budget_ns, enforce_ns)
        timed = Timed(RelativeTime.from_nanos(effective_ns), now_ns=start_ns)
        try:
            if handler.work is None:
                # a cost-only handler burns its actual cost plus the
                # runtime's handler inflation: one Compute under the budget
                ok = yield from timed.do_compute(
                    handler.actual_cost_ns + inflation_ns
                )
            else:
                ok = yield from timed.do_interruptible(
                    _WorkInterruptible(release)
                )
        finally:
            thread.activity_label = None
        end_ns = vm.now_ns
        self._on_serve_end(end_ns)
        elapsed = end_ns - start_ns
        enforcement_cut = (
            not ok and enforce_ns is not None and enforce_ns < budget_ns
        )
        # log-and-continue: an overrun is visible whether the handler ran
        # to completion or was cut by the capacity budget — either way it
        # consumed more than it declared
        if (
            config is not None
            and not config.cuts_execution
            and elapsed > config.budget_for(release.handler.cost_ns)
                + vm.overhead.handler_inflation_ns
        ):
            self._record_overrun(end_ns, job.name, config.policy)
        if ok:
            job.state = JobState.COMPLETED
            job.finish_time = end_ns / NS_PER_UNIT
            vm.trace.add_event(end_ns / NS_PER_UNIT, TraceEventKind.COMPLETION, job.name)
        elif enforcement_cut:
            job.finish_time = end_ns / NS_PER_UNIT
            self._record_overrun(end_ns, job.name, config.policy)
            if config.completes_on_cut:
                # clip-to-budget: the partial work stands, the release
                # counts as served (imprecise-computation semantics)
                job.state = JobState.COMPLETED
                vm.trace.add_event(
                    end_ns / NS_PER_UNIT, TraceEventKind.COMPLETION,
                    job.name, "clipped to declared cost",
                )
            else:
                job.state = JobState.ABORTED
                job.interrupted = True
                vm.trace.add_event(
                    end_ns / NS_PER_UNIT, TraceEventKind.INTERRUPT,
                    job.name,
                    f"budget={effective_ns / NS_PER_UNIT:g}tu (enforced)",
                )
                if config.sheds_next:
                    self._shed_pending += 1
            ok = config.completes_on_cut
        else:
            job.state = JobState.ABORTED
            job.interrupted = True
            job.finish_time = end_ns / NS_PER_UNIT
            vm.trace.add_event(
                end_ns / NS_PER_UNIT, TraceEventKind.INTERRUPT, job.name,
                f"budget={budget_ns / NS_PER_UNIT:g}tu",
            )
        source = release.source
        if source is not None and source.breaker is not None:
            if ok:
                source.breaker.record_success(end_ns / NS_PER_UNIT)
            else:
                source.breaker.record_failure(end_ns / NS_PER_UNIT)
        return ok, elapsed

    def _record_overrun(self, now_ns: int, subject: str, policy: str) -> None:
        """Record an overrun event and notify the VM's watchdog, if any."""
        vm = self._require_vm()
        vm.trace.add_event(
            now_ns / NS_PER_UNIT, TraceEventKind.OVERRUN, subject,
            f"policy={policy}",
        )
        if vm.watchdog is not None:
            vm.watchdog.notify_overrun(now_ns / NS_PER_UNIT, subject)

    def _on_serve_start(self, now_ns: int, release: HandlerRelease) -> None:
        """Policy hook: the interruptible section is about to run."""

    def _on_serve_end(self, now_ns: int) -> None:
        """Policy hook: the interruptible section just finished."""

    # -- results --------------------------------------------------------------------------

    @property
    def jobs(self) -> list[AperiodicJob]:
        """The job record of every release (metric input)."""
        return [r.job for r in self.releases]

    def run_metrics(self) -> RunMetrics:
        """This server's run measured the paper's way (Section 6.1)."""
        return measure_run(self.jobs)

    def close(self) -> None:
        """Cut this server's links into its finished run.

        Every handler points back at its server, and so, through their
        handlers, do the releases and the events that fired them; the
        policy's service thread or handler closes over the server too.
        Each closes a reference cycle, so without this a run's whole
        object graph waits for the cyclic collector.  Call it once the
        VM has run and the results are read: the handlers drop their
        server link and the server cannot serve again.  ``releases``,
        ``jobs`` and ``capacity_history`` keep their values.
        """
        for handler in self.handlers:
            handler.server = None  # type: ignore[assignment]

    def record_capacity(self, now_ns: int, capacity_ns: int) -> None:
        """Append a capacity breakpoint (times converted to tu)."""
        point = (now_ns / NS_PER_UNIT, capacity_ns / NS_PER_UNIT)
        if not self.capacity_history or self.capacity_history[-1] != point:
            self.capacity_history.append(point)

    def _require_vm(self) -> RTSJVirtualMachine:
        if self.vm is None:
            raise RuntimeError(f"server {self.name!r} is not attached to a VM")
        return self.vm

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} "
            f"C={self.params.capacity_ns / NS_PER_UNIT:g} "
            f"T={self.params.period_ns / NS_PER_UNIT:g}>"
        )

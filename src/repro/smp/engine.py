"""The multicore discrete-event kernel: *m* identical cores, one clock.

:class:`MulticoreSimulation` is a :class:`repro.sim.engine.Simulation`
over ``n_cores`` identical processors that overrides only dispatch.  All
cores share the inherited virtual clock and timed-callback queue; at every
decision point a :class:`~repro.smp.policies.MulticorePolicy` maps the
ready set onto the cores, and time advances to the next global decision
point — the earliest of any running entity's budget exhaustion or the
next timed callback.  Entity registration, periodic releases (the eager
reference schedule and the lazy release chain), deadline checks and
overrun records are :class:`~repro.sim.engine.Simulation`'s own, so both
kernels follow one set of tie-break rules.

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
from typing import TYPE_CHECKING

from ..sim.engine import EPS, Entity, Simulation
from ..sim.trace import ExecutionTrace, TraceEventKind
from .policies import MulticorePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig

__all__ = ["MulticoreSimulation"]


class MulticoreSimulation(Simulation):
    """A simulation run over ``n_cores`` identical processors.

    Typical use::

        sim = MulticoreSimulation(GlobalEDFPolicy(), n_cores=4)
        for spec in taskset:
            sim.add_periodic_task(spec)
        sim.run(until=100)

    With ``n_cores=1`` and a global policy the kernel degenerates to the
    uniprocessor semantics (segments additionally carry ``core=0``).
    ``kernel`` only switches between the lazy (``"auto"``) and the eager
    (``"reference"``) release schedule: dispatch always hands the policy
    the full ready set.
    """

    def __init__(
        self,
        policy: MulticorePolicy,
        n_cores: int,
        trace: ExecutionTrace | None = None,
        on_deadline_miss: str = "continue",
        enforcement: "EnforcementConfig | None" = None,
        kernel: str = "auto",
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        super().__init__(
            policy, trace=trace, on_deadline_miss=on_deadline_miss,
            enforcement=enforcement, kernel=kernel,
        )
        self.n_cores = n_cores
        self._running: list[Entity | None] = [None] * n_cores
        #: id(entity) -> core it last executed on
        self._last_core: dict[int, int] = {}
        #: total MIGRATION events recorded
        self.migrations = 0

    def _setup_ready_index(self) -> None:
        """No ready index: the policy's ``assign()`` needs every ready
        entity at every decision point."""

    def _run_main(self, until: float) -> None:
        """The decision loop: one slice runs on every assigned core."""
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

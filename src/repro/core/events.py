"""``ServableAsyncEvent`` and ``ServableAsyncEventHandler``.

The entry points of the Task Server Framework (paper Section 3):

* a :class:`ServableAsyncEvent` (SAE) is an ``AsyncEvent`` subclass whose
  ``fire()`` additionally routes each bound servable handler to its task
  server via ``servableEventReleased()``;
* a :class:`ServableAsyncEventHandler` (SAEH) embodies the code to run.
  It is *not* an ``AsyncEventHandler`` and does not implement
  ``Schedulable``: it has no processor claim of its own — the unique
  :class:`~repro.core.server.TaskServer` it is associated with schedules
  it out of the server's own capacity.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, TYPE_CHECKING

from ..rtsj.async_event import AsyncEvent
from ..rtsj.instructions import Instruction
from ..rtsj.time_types import RelativeTime  # noqa: F401 (public API type)
from ..sim.task import AperiodicJob
from ..sim.trace import TraceEventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import TaskServer

__all__ = ["ServableAsyncEvent", "ServableAsyncEventHandler", "HandlerRelease"]

WorkFactory = Callable[[], Generator[Instruction, Any, None]]

_release_counter = itertools.count()


class ServableAsyncEventHandler:
    """Code bound to servable events, scheduled by a unique task server.

    Parameters
    ----------
    cost:
        The *declared* worst-case execution time, used by the server's
        ``chooseNextEvent()`` and by admission control.
    server:
        The unique task server that will schedule this handler.
    actual_cost:
        The execution time the handler really consumes; defaults to the
        declared cost.  Scenario 3 of the paper declares 1 tu for a
        handler that runs 2 tu — this parameter reproduces that.
    work:
        Optional factory returning a generator of VM instructions, for
        handlers that do more than burn a fixed cost.  When given, it
        overrides ``actual_cost``.
    optional:
        Marks the handler as expendable under overload: a server whose
        overload detector is in degraded mode sheds releases of optional
        handlers instead of queueing them (see ``repro.overload``).
    value:
        Optional completion value for D-OVER-style value-density
        shedding; defaults to the declared cost (density 1).
    """

    def __init__(
        self,
        cost: RelativeTime,
        server: "TaskServer",
        actual_cost: RelativeTime | None = None,
        work: WorkFactory | None = None,
        name: str = "saeh",
        optional: bool = False,
        value: float | None = None,
    ) -> None:
        if actual_cost is None:
            actual_cost = cost
        #: the declared and actual costs in nanoseconds, read on every
        #: release (both time values are immutable)
        self.cost_ns = cost.total_nanos
        self.actual_cost_ns = actual_cost.total_nanos
        if self.cost_ns <= 0:
            raise ValueError("declared cost must be positive")
        if self.actual_cost_ns <= 0:
            raise ValueError("actual cost must be positive")
        self.cost = cost
        self.actual_cost = actual_cost
        self.server = server
        self.work = work
        self.name = name
        self.optional = optional
        self.value = value
        server.register_handler(self)

    def __repr__(self) -> str:
        return f"<SAEH {self.name} cost={self.cost!r}>"


class HandlerRelease:
    """One firing of a servable handler: the unit the server queues.

    Carries an :class:`~repro.sim.task.AperiodicJob` record (times in tu)
    so execution runs produce the same metric inputs as simulations.
    """

    def __init__(self, handler: ServableAsyncEventHandler,
                 release_ns: int) -> None:
        self.handler = handler
        self.release_ns = release_ns
        #: declared cost (what the server budgets for)
        self.cost_ns = handler.cost_ns
        self.release_id = next(_release_counter)
        #: the firing ServableAsyncEvent (overload feedback path: a shed
        #: or interrupted release reports failure to the source's breaker)
        self.source: "ServableAsyncEvent | None" = None
        #: completion value for value-density shedding
        self.value = handler.value
        release = release_ns / 1_000_000
        self.job = AperiodicJob(
            name=f"{handler.name}@{release:g}",
            release=release,
            cost=handler.actual_cost_ns / 1_000_000,
            declared_cost=handler.cost_ns / 1_000_000,
        )

    def __repr__(self) -> str:
        return f"<HandlerRelease {self.job.name}>"


class ServableAsyncEvent(AsyncEvent):
    """An ``AsyncEvent`` whose firing is serviced by task servers.

    Standard ``AsyncEventHandler``s may still be attached with
    ``add_handler`` (the inherited behaviour is preserved, as the paper's
    class diagram requires); servable handlers are attached with
    :meth:`add_servable_handler` — the paper's ``addHandler`` overload.

    Sporadic arrival control
    ------------------------
    The RTSJ's ``SporadicParameters`` bound the arrival rate of an event
    through a minimum interarrival time (MIT) and a violation policy
    (the machinery JSR-282 extends, cf. the paper's related work).  Pass
    ``min_interarrival`` to enforce an MIT on this event:

    * ``mit_violation="ignore"`` — a firing closer than the MIT to the
      previous *accepted* arrival is dropped (RTSJ ``arrivalTimeQueue``
      IGNORE semantics);
    * ``mit_violation="delay"`` — the firing is queued and delivered at
      the earliest instant that respects the MIT (SAVE/REPLACE-style
      deferral).  Requires at least one servable handler, whose server's
      VM provides the timer.
    """

    def __init__(
        self,
        name: str = "sae",
        min_interarrival: "RelativeTime | None" = None,
        mit_violation: str = "ignore",
    ) -> None:
        super().__init__(name=name)
        self._servable: list[ServableAsyncEventHandler] = []
        if min_interarrival is not None and min_interarrival.total_nanos <= 0:
            raise ValueError("min_interarrival must be positive")
        if mit_violation not in ("ignore", "delay"):
            raise ValueError(
                f"mit_violation must be 'ignore' or 'delay', "
                f"got {mit_violation!r}"
            )
        self.min_interarrival = min_interarrival
        self.mit_violation = mit_violation
        #: virtual time of the last accepted (or scheduled) arrival
        self._last_arrival_ns: int | None = None
        #: firings dropped by the IGNORE policy (diagnostic)
        self.ignored_fire_count = 0
        #: optional :class:`repro.faults.injectors.FireFaultInjector`;
        #: None (the default) keeps the golden-path fire() semantics
        self.fault_injector = None
        #: optional :class:`repro.overload.CircuitBreaker` gating this
        #: event source; None (the default) keeps golden-path fire()
        self.breaker = None

    def add_servable_handler(self, handler: ServableAsyncEventHandler) -> None:
        """The overloaded ``addHandler(ServableAsyncEventHandler)``."""
        if handler not in self._servable:
            self._servable.append(handler)

    def remove_servable_handler(self, handler: ServableAsyncEventHandler) -> None:
        if handler in self._servable:
            self._servable.remove(handler)

    @property
    def servable_handlers(self) -> list[ServableAsyncEventHandler]:
        return list(self._servable)

    def fire(self) -> None:
        """Release standard handlers, then route each servable handler to
        its server (the redefined ``fire()`` of the paper), subject to
        this event's arrival-rate control.

        An attached fault injector perturbs *delivery* first: a dropped
        or delayed firing never reaches the arrival-rate control (the
        fault models the event being lost or late upstream of the
        runtime).
        """
        if self.fault_injector is not None:
            if not self.fault_injector.on_fire(self, self._vm()):
                return
        if self.min_interarrival is None:
            self._deliver()
            return
        vm = self._vm()
        mit = self.min_interarrival.total_nanos
        earliest = (
            self._last_arrival_ns + mit
            if self._last_arrival_ns is not None
            else vm.now_ns
        )
        if vm.now_ns >= earliest:
            self._last_arrival_ns = vm.now_ns
            self._deliver()
        elif self.mit_violation == "ignore":
            self.ignored_fire_count += 1
        else:  # delay: deliver at the earliest MIT-respecting instant
            self._last_arrival_ns = earliest
            vm.schedule_event(earliest, lambda now: self._deliver(), order=2)

    def _deliver(self) -> None:
        super().fire()
        if self.breaker is not None and self._servable:
            vm = self._vm()
            now = vm.now_ns / 1_000_000
            if not self.breaker.allow(now):
                # the firing never reaches the servers: record the
                # rejection as a first-class shed on the event source
                vm.trace.add_event(
                    now, TraceEventKind.SHED, self.name,
                    f"breaker open ({self.breaker.name})",
                )
                return
        for handler in self._servable:
            handler.server.servable_event_released(handler, source=self)

    def _vm(self):
        for handler in self._servable:
            if handler.server.vm is not None:
                return handler.server.vm
        raise RuntimeError(
            f"event {self.name!r}: arrival-rate control needs a servable "
            "handler whose server is attached to a VM"
        )

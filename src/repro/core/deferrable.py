"""``DeferrableTaskServer`` — the paper's modified Deferrable Server (S4.2).

Unlike the Polling Server, the DS "can serve an aperiodic task at any
time as it has enough capacity", so its ``run()`` is not delegated to a
periodic thread.  Following the paper:

* the service loop is an ``AsyncEventHandler`` bound to an internal
  ``wakeUp`` event;
* each aperiodic arrival fires ``wakeUp`` if the server is not already
  running;
* a periodic timer replenishes the capacity to its full value every
  period and fires ``wakeUp`` if work is pending and the server idle;
* ``chooseNextEvent()`` implements the end-of-period *bridge*: when
  ``now + cost`` crosses the next replenishment, the ``Timed`` budget
  granted is ``remaining capacity + full capacity`` (the event may run
  across the refill), provided the remaining capacity lasts until the
  refill instant.

Capacity is decreased by the measured wall time spent in the handlers'
``run()`` methods, checkpointed at the replenishment boundary so a run
crossing the refill charges each period correctly.
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from ..rtsj.async_event import AsyncEvent, AsyncEventHandler
from ..rtsj.instructions import Instruction
from ..rtsj.time_types import RelativeTime
from ..rtsj.vm import NS_PER_UNIT, RTSJVirtualMachine
from ..sim.trace import TraceEventKind
from .events import HandlerRelease
from .parameters import TaskServerParameters
from .queues import PendingQueue
from .server import TaskServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig
    from ..overload.config import OverloadConfig

__all__ = ["DeferrableTaskServer"]


class DeferrableTaskServer(TaskServer):
    """Deferrable Server policy adapted to RTSJ constraints."""

    def __init__(
        self,
        params: TaskServerParameters,
        name: str = "DS",
        safety_margin: RelativeTime | None = None,
        enforcement: "EnforcementConfig | None" = None,
        overload: "OverloadConfig | None" = None,
    ) -> None:
        super().__init__(params, name, enforcement=enforcement,
                         overload=overload)
        # Section 7's anti-interruption margin (see PollingTaskServer)
        self.safety_margin_ns = (
            safety_margin.total_nanos if safety_margin is not None else 0
        )
        if self.safety_margin_ns < 0:
            raise ValueError("safety_margin must be non-negative")
        self._queue: PendingQueue[HandlerRelease] = PendingQueue(
            **self._queue_bound_kwargs()
        )
        self.capacity_ns = params.capacity_ns
        self.next_refill_ns = params.start.total_nanos + params.period_ns
        self._running = False
        self._checkpoint_ns: int | None = None
        self.wake_up = AsyncEvent(name=f"{name}-wakeUp")
        self._aeh: AsyncEventHandler | None = None

    # -- installation ---------------------------------------------------------------

    def _install(self, vm: RTSJVirtualMachine, horizon_ns: int) -> None:
        self._aeh = AsyncEventHandler(
            logic=lambda aeh: self._service(aeh),
            scheduling=self.params.scheduling,
            name=self.name,
        )
        self._aeh.attach(vm)
        self.wake_up.add_handler(self._aeh)
        self.record_capacity(vm.now_ns, self.capacity_ns)
        vm.schedule_timer_event(self.next_refill_ns, self._refill_tick)

    def close(self) -> None:
        super().close()
        # the wakeUp handler's logic closes over this server
        if self._aeh is not None:
            self.wake_up.remove_handler(self._aeh)
            self._aeh = None

    # -- capacity accounting -----------------------------------------------------------

    def _charge_to(self, now_ns: int) -> None:
        """Deduct wall time since the last checkpoint from the capacity."""
        if self._checkpoint_ns is not None:
            elapsed = now_ns - self._checkpoint_ns
            self.capacity_ns = max(0, self.capacity_ns - elapsed)
            self._checkpoint_ns = now_ns
            self.record_capacity(now_ns, self.capacity_ns)

    def _refill_tick(self, now_ns: int) -> None:
        vm = self._require_vm()
        self._charge_to(now_ns)
        # scaled_capacity_ns == params.capacity_ns at scale 1.0, so
        # degraded-mode scaling is invisible on the golden path
        self.capacity_ns = self.scaled_capacity_ns
        self.record_capacity(now_ns, self.capacity_ns)
        vm.trace.add_event(
            now_ns / NS_PER_UNIT, TraceEventKind.REPLENISH, self.name,
            f"capacity={self.capacity_ns / NS_PER_UNIT:g}",
        )
        self.next_refill_ns += self.params.period_ns
        vm.schedule_timer_event(self.next_refill_ns, self._refill_tick)
        if not self._running and not self._queue.empty:
            self.wake_up.fire()

    def _on_serve_start(self, now_ns: int, release) -> None:
        self._charge_to(now_ns)  # no-op; opens the window below
        self._checkpoint_ns = now_ns

    def _on_serve_end(self, now_ns: int) -> None:
        self._charge_to(now_ns)
        self._checkpoint_ns = None

    # -- queueing and wake-up -------------------------------------------------------------

    def _enqueue(self, release: HandlerRelease) -> None:
        shed = self._queue.add(release)
        for victim in shed:
            self._shed_release(
                victim, f"queue bound ({self._queue._bound.policy})"
            )
        if release in shed:
            return
        if not self._running:
            # "each time an aperiodic event occurs, if the server is not
            # already running, this event [wakeUp] is fired"
            self.wake_up.fire()

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    # -- chooseNextEvent ---------------------------------------------------------------------

    def _choose(self, now_ns: int) -> tuple[HandlerRelease, int] | None:
        """First serveable release and its ``Timed`` budget, or ``None``.

        A release is serveable when its declared cost fits the remaining
        capacity, or when the run would cross the next refill and the
        remaining capacity bridges the gap — in which case the budget is
        ``remaining + full capacity`` (the paper's end-of-period rule).
        """
        full = self.scaled_capacity_ns
        remaining = self.capacity_ns
        margin = self.safety_margin_ns
        time_to_refill = self.next_refill_ns - now_ns
        for release in self._queue:
            cost = release.cost_ns + margin
            if now_ns + cost > self.next_refill_ns:
                if time_to_refill <= remaining and cost <= remaining + full:
                    self._queue.remove(release)
                    return release, remaining + full
                continue
            if cost <= remaining:
                self._queue.remove(release)
                return release, remaining
        return None

    # -- the service loop -----------------------------------------------------------------------

    def _service(self, aeh: AsyncEventHandler
                 ) -> Generator[Instruction, Any, None]:
        """One invocation per consumed ``wakeUp`` firing."""
        if self._running:
            return  # a banked firing arrived while we were already serving
        self._running = True
        vm = self._require_vm()
        try:
            while True:
                pick = self._choose(vm.now_ns)
                if pick is None:
                    break
                release, budget = pick
                yield from self._serve_release(
                    aeh.thread, release, budget_ns=budget
                )
        finally:
            self._running = False

    # -- analysis -------------------------------------------------------------------------------

    def interference_ns(self, window_ns: int) -> int:
        """The classic deferrable-server *double hit*: back-to-back
        capacity at the end of one period and the start of the next
        (Strosnider, Lehoczky & Sha 1995)."""
        if window_ns <= 0:
            return 0
        capacity = self.params.capacity_ns
        period = self.params.period_ns
        extra = -(-max(window_ns - capacity, 0) // period)  # ceil
        return capacity * (1 + extra)

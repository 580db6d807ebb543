"""Overload detection and degraded service modes.

The :class:`OverloadDetector` fuses three signals over a sliding window:

* a **utilization estimator** — declared aperiodic cost arriving per tu
  (demand utilization), the quantity whose sharp threshold behaviour
  Gopalakrishnan's utilization-threshold results describe;
* the **deadline-miss rate** (fed by the PR 1
  :class:`~repro.faults.watchdog.DeadlineMissWatchdog` through its
  listener hook);
* the **shed rate** reported by bounded queues and circuit breakers.

Crossing any armed threshold switches the system into **degraded mode**
(a ``MODE_CHANGE`` trace event): every registered
:class:`DegradedModeAction` fires — the bundled
:class:`ServiceScaleAction` shrinks the aperiodic servers' service share
— and servers additionally shed releases of handlers marked *optional*.
Once the demand estimate stays at or below the low watermark, with a
clean miss/shed window, for the configured quiescence time, the detector
restores **normal mode** and every action is undone.  The detector is
purely event-driven (it re-evaluates on each notification), so attaching
one without notifications costs nothing and changes nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from ..sim.trace import ExecutionTrace, TraceEventKind
from .config import DetectorConfig

__all__ = ["DegradedModeAction", "ServiceScaleAction", "OverloadDetector"]


class DegradedModeAction(Protocol):
    """Something toggled by mode changes (shrink a budget, mute a path)."""

    def degrade(self, now: float) -> None: ...

    def restore(self, now: float) -> None: ...


class ServiceScaleAction:
    """Scales servers' replenished capacity while degraded.

    Works on any object exposing a ``service_scale`` attribute — the
    framework task servers and the ideal simulator servers both do.
    """

    def __init__(self, servers, scale: float) -> None:
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        self.servers = list(servers)
        self.scale = scale

    def degrade(self, now: float) -> None:
        for server in self.servers:
            server.service_scale = self.scale

    def restore(self, now: float) -> None:
        for server in self.servers:
            server.service_scale = 1.0


class OverloadDetector:
    """Sliding-window overload detector driving degraded-mode changes."""

    def __init__(
        self,
        config: DetectorConfig,
        name: str = "overload",
        trace: ExecutionTrace | None = None,
    ) -> None:
        self.config = config
        self.name = name
        self.trace = trace
        self.actions: list[DegradedModeAction] = []
        self.mode = "normal"
        self.mode_changes = 0
        self.time_in_degraded = 0.0
        self._degraded_since: float | None = None
        #: arrival times and their declared costs, popped together
        self._arrival_times: deque[float] = deque()
        self._costs: deque[float] = deque()
        self._misses: deque[float] = deque()
        self._sheds: deque[float] = deque()
        #: last instant any overload signal was observed (for quiescence)
        self._last_signal: float | None = None
        self._now = 0.0

    # -- wiring ------------------------------------------------------------

    def add_action(self, action: DegradedModeAction) -> "OverloadDetector":
        self.actions.append(action)
        return self

    def attach_watchdog(self, watchdog) -> "OverloadDetector":
        """Subscribe to a :class:`~repro.faults.watchdog.DeadlineMissWatchdog`
        so every deadline miss feeds the miss-rate signal."""
        watchdog.add_listener(self._on_watchdog_event)
        return self

    def _on_watchdog_event(self, kind: str, now: float, subject: str) -> None:
        if kind == "miss":
            self.note_miss(now)

    # -- properties --------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.mode == "degraded"

    def demand_utilization(self, now: float) -> float:
        """Declared aperiodic cost per tu over the sliding window."""
        self._expire(now)
        return sum(self._costs) / self.config.window

    # -- notifications -----------------------------------------------------

    def note_arrival(self, now: float, cost: float) -> None:
        """An aperiodic release of declared ``cost`` tu arrived."""
        self._arrival_times.append(now)
        self._costs.append(cost)
        self._update(now)

    def note_miss(self, now: float) -> None:
        self._misses.append(now)
        self._signal(now)
        self._update(now)

    def note_shed(self, now: float) -> None:
        self._sheds.append(now)
        self._signal(now)
        self._update(now)

    def note_breaker_open(self, now: float) -> None:
        self._signal(now)
        self._update(now)

    def poll(self, now: float) -> None:
        """Re-evaluate the thresholds at ``now`` with no new signal.

        Event-driven callers only re-enter ``_update`` when something
        arrives, misses or sheds — a long-running *service* also needs a
        fully quiet period to count towards quiescence, so its
        housekeeping loop polls the detector on the heartbeat."""
        self._update(now)

    def finish(self, now: float) -> None:
        """Close the degraded-time account at the end of a run."""
        self._update(now)
        if self._degraded_since is not None:
            self.time_in_degraded += max(0.0, now - self._degraded_since)
            self._degraded_since = now

    def close(self) -> None:
        """Drop the actions once :meth:`finish` has run.  They reach the
        servers or the service that hold this detector, so a finished
        run then frees by reference counting."""
        self.actions.clear()

    # -- internals ---------------------------------------------------------

    def _signal(self, now: float) -> None:
        if self._last_signal is None or now > self._last_signal:
            self._last_signal = now

    def _expire(self, now: float) -> None:
        horizon = now - self.config.window
        while self._arrival_times and self._arrival_times[0] < horizon:
            self._arrival_times.popleft()
            self._costs.popleft()
        while self._misses and self._misses[0] < horizon:
            self._misses.popleft()
        while self._sheds and self._sheds[0] < horizon:
            self._sheds.popleft()

    def _update(self, now: float) -> None:
        self._now = max(self._now, now)
        config = self.config
        demand = self.demand_utilization(now)
        if demand > config.low_watermark:
            self._signal(now)
        if self.mode == "normal":
            overloaded = demand > config.high_watermark
            if (
                config.miss_threshold is not None
                and len(self._misses) >= config.miss_threshold
            ):
                overloaded = True
            if (
                config.shed_threshold is not None
                and len(self._sheds) >= config.shed_threshold
            ):
                overloaded = True
            if overloaded:
                self._enter_degraded(now, demand)
        else:
            quiet_since = (
                self._last_signal if self._last_signal is not None else now
            )
            if (
                demand <= config.low_watermark
                and not self._misses
                and not self._sheds
                and now - quiet_since >= config.quiescence
            ):
                self._enter_normal(now, demand)

    def _enter_degraded(self, now: float, demand: float) -> None:
        self.mode = "degraded"
        self.mode_changes += 1
        self._degraded_since = now
        if self.trace is not None:
            self.trace.add_event(
                now, TraceEventKind.MODE_CHANGE, self.name,
                f"degraded (demand={demand:.3g}/tu)",
            )
        for action in self.actions:
            action.degrade(now)

    def _enter_normal(self, now: float, demand: float) -> None:
        self.mode = "normal"
        self.mode_changes += 1
        if self._degraded_since is not None:
            self.time_in_degraded += max(0.0, now - self._degraded_since)
            self._degraded_since = None
        if self.trace is not None:
            self.trace.add_event(
                now, TraceEventKind.MODE_CHANGE, self.name,
                f"normal (demand={demand:.3g}/tu)",
            )
        for action in self.actions:
            action.restore(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<OverloadDetector {self.name} {self.mode} "
            f"changes={self.mode_changes}>"
        )

"""The shard supervisor: heartbeats, death declaration, failover, restore.

The supervisor is the fabric's control plane, one timer action on the
shared clock that re-arms itself after its checks.  Every ``interval``
tu it samples each shard's
housekeeping beat counter (the same heartbeat taxonomy the digital twin
uses for its *internal* liveness —
:data:`~repro.service.twin.HEARTBEAT_MISS` — applied from the outside):
a live shard's housekeeper advances the counter every half-heartbeat,
so a frozen counter is a missed beat.  After ``max_missed`` consecutive
misses the shard is declared dead (``SHARD_DOWN``), and its sources are
immediately dispositioned:

* **failover** — each source is re-homed onto the alive sibling with
  the most spare bucket capacity (lowest planner demand per unit
  capacity, backlog under ``takeover_headroom`` of its queue bound);
  the router's fabric-level idempotency cache guarantees replayed
  requests are not double-admitted across the move;
* **brown-out** — with no eligible sibling the source is parked on the
  degraded-mode stack (``FAILOVER ... -> brown-out``): optionals shed,
  the rest retry into the blackout until the shard returns.

``restart_delay`` tu after the declaration the shard is rebuilt from
its write-ahead checkpoint (:meth:`~repro.service.service.
AdmissionService.restore` — byte-identical twin, re-spawned in-flight
executors), the overrides are lifted (``SHARD_RESTORED``), and the
declared→restored latency is recorded for the soak's bounded-failover
assertion.  The new incarnation's first executor steps and
housekeeping arm are queued behind the check that restored it, so they
run at the same instant, after the supervisor has re-armed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.trace import TraceEventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.clock import Timer
    from .fabric import AdmissionFabric, _Shard

__all__ = ["SupervisorConfig", "Supervisor"]

_EPS = 1e-9


@dataclass(frozen=True)
class SupervisorConfig:
    """Heartbeat and restore policy of the fabric control plane."""

    #: sampling period in tu; ``None`` = the shard twin's heartbeat
    #: window (a live housekeeper beats twice per window, so one whole
    #: window with a frozen counter is unambiguous)
    interval: float | None = None
    #: consecutive missed beats before a shard is declared dead (K)
    max_missed: int = 3
    #: tu between the death declaration and the checkpoint restore
    restart_delay: float = 15.0
    #: a sibling may take failed-over sources while its backlog is
    #: under this fraction of its queue bound
    takeover_headroom: float = 0.75

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError(
                f"interval must be > 0, got {self.interval}"
            )
        if self.max_missed < 1:
            raise ValueError(
                f"max_missed must be >= 1, got {self.max_missed}"
            )
        if self.restart_delay < 0:
            raise ValueError(
                f"restart_delay must be >= 0, got {self.restart_delay}"
            )
        if not 0 < self.takeover_headroom <= 1:
            raise ValueError(
                "takeover_headroom must be in (0, 1], got "
                f"{self.takeover_headroom}"
            )


class Supervisor:
    """Watches shard heartbeats; declares, fails over, restores."""

    def __init__(self, fabric: "AdmissionFabric",
                 config: SupervisorConfig | None = None) -> None:
        self.fabric = fabric
        self.config = config if config is not None else SupervisorConfig()
        self.interval = (
            self.config.interval if self.config.interval is not None
            else fabric.shard_config.twin.heartbeat
        )
        self._timer: "Timer | None" = None
        self._beats: dict[int, int] = {}
        self._misses: dict[int, int] = {}
        #: shard index -> declaration instant while it is down
        self.down_since: dict[int, float] = {}
        #: declared → restored latencies, in tu (soak assertion input)
        self.failover_latencies: list[float] = []
        self.declared_down = 0
        self.restored = 0

    def start(self) -> None:
        """Queue the first arm of the sampling timer."""
        if self._timer is None:
            self._timer = self.fabric.clock.call_soon(self._arm)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        clock = self.fabric.clock
        self._timer = clock.call_at(clock.now() + self.interval, self._run)

    def _run(self) -> None:
        now = self.fabric.clock.now()
        for shard in self.fabric.shards:
            self._check(now, shard)
        self._arm()

    def _check(self, now: float, shard: "_Shard") -> None:
        index = shard.index
        if index in self.down_since:
            if now - self.down_since[index] >= (
                self.config.restart_delay - _EPS
            ):
                self._restore(now, shard)
            return
        beats = shard.service.heartbeats
        if beats == self._beats.get(index, -1):
            self._misses[index] = self._misses.get(index, 0) + 1
            if self._misses[index] >= self.config.max_missed:
                self._declare_down(now, shard)
        else:
            self._misses[index] = 0
        self._beats[index] = beats

    # -- transitions -------------------------------------------------------

    def _declare_down(self, now: float, shard: "_Shard") -> None:
        fabric = self.fabric
        index = shard.index
        shard.alive = False          # even a wedged-but-running shard
        self.down_since[index] = now
        self.declared_down += 1
        fabric.trace.add_event(
            now, TraceEventKind.SHARD_DOWN, f"shard-{index}",
            detail=f"{self._misses[index]} missed heartbeats "
                   f"(interval {self.interval:g}tu)",
        )
        for source in fabric.sources_homed_on(index):
            target = self._pick_target(index)
            if target is None:
                fabric.router.set_override(source, None)
                fabric.trace.add_event(
                    now, TraceEventKind.FAILOVER, source,
                    detail=f"shard-{index} -> brown-out "
                           "(no sibling with spare capacity)",
                )
            else:
                fabric.router.set_override(source, target)
                fabric.trace.add_event(
                    now, TraceEventKind.FAILOVER, source,
                    detail=f"shard-{index} -> shard-{target}",
                )

    def _pick_target(self, down: int) -> int | None:
        """The alive sibling with the most spare bucket capacity."""
        bound = self.fabric.shard_config.queue_bound
        candidates = []
        for shard in self.fabric.shards:
            if shard.index == down or not shard.alive:
                continue
            planner = shard.service.planner
            if bound is not None and (
                planner.backlog >= bound * self.config.takeover_headroom
            ):
                continue
            load = planner.demand / max(planner.effective_capacity, _EPS)
            candidates.append((load, shard.index))
        if not candidates:
            return None
        return min(candidates)[1]

    def _restore(self, now: float, shard: "_Shard") -> None:
        fabric = self.fabric
        index = shard.index
        fabric.restore_shard(index)
        latency = now - self.down_since.pop(index)
        self.failover_latencies.append(latency)
        self.restored += 1
        self._misses[index] = 0
        self._beats[index] = shard.service.heartbeats
        cleared = fabric.router.clear_overrides_for(index)
        fabric.trace.add_event(
            now, TraceEventKind.SHARD_RESTORED, f"shard-{index}",
            detail=f"checkpoint restore after {latency:g}tu down, "
                   f"{len(cleared)} source(s) re-homed",
        )

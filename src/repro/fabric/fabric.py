"""The sharded admission fabric: N supervised shards behind one router.

:class:`AdmissionFabric` composes the PR 6 building blocks into a
shard-per-core admission plane:

* N :class:`~repro.service.service.AdmissionService` shards on one
  shared :class:`~repro.service.clock.VirtualClock` — the one scheduler
  their executors, housekeepers and the supervisor run on — each with
  its own capacity bucket, overload stack, digital twin, and
  (optionally) its own JSONL write-ahead checkpoint under
  ``checkpoint_dir``;
* a consistent source → shard :class:`~repro.fabric.placement.
  SourcePlacement` computed with the SMP bin-packing machinery;
* the :class:`~repro.fabric.router.ShardRouter` edge (fabric-level
  idempotency, per-shard breakers, failover overrides);
* an optional :class:`~repro.fabric.supervisor.Supervisor` control
  plane (heartbeats → ``SHARD_DOWN`` → failover → checkpoint restore →
  ``SHARD_RESTORED``).

Verification happens at the fabric level, after the run:
:meth:`merged_trace` interleaves every incarnation's events (shard
attribution as a ``[shard-k]`` detail suffix) with the fabric's own
control-plane events, and :meth:`finish` sweeps the merge with the
:class:`~repro.verify.admission.AdmissionProtocolMonitor` — exactly one
terminal per admitted request *across shard boundaries*, no double
admission through failover, hard deadlines met or explicitly SHED.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..faults.injectors import ExecutionSkew
from ..overload.config import BreakerConfig
from ..service.service import AdmissionService, DrainReport, ServiceConfig
from ..sim.trace import (
    ExecutionTrace,
    TraceEvent,
    in_time_order,
    merge_in_time_order,
)
from .placement import SourcePlacement, place_sources
from .router import ShardRouter
from .supervisor import Supervisor, SupervisorConfig

__all__ = ["FabricError", "FabricConfig", "AdmissionFabric"]


class FabricError(RuntimeError):
    """The fabric cannot honour the request (e.g. no checkpoint)."""


@dataclass(frozen=True)
class FabricConfig:
    """Shape and policy of one admission fabric."""

    shards: int = 2
    #: declared client sources, placed up-front; undeclared sources
    #: hash onto shards consistently
    sources: tuple[str, ...] = ()
    heuristic: str = "wf"
    #: per-shard utilization headroom the placement keeps free for
    #: failover takeovers
    reserve: float = 0.1
    supervised: bool = True
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: router-side per-shard breaker policy (``None`` disables)
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.reserve < 1:
            raise ValueError(
                f"reserve must be in [0, 1), got {self.reserve}"
            )


def _tagged(events: list[TraceEvent], tag: str):
    """One shard incarnation's plane in time order, each event copied
    with ``tag`` appended to its detail."""
    for at, index, event in in_time_order(events):
        yield at, index, TraceEvent(
            event.time, event.kind, event.subject, event.detail + tag
        )


@dataclass
class _Shard:
    """One shard slot: the live service plus its crash history."""

    index: int
    service: AdmissionService
    checkpoint: Path | None = None
    alive: bool = True
    incarnation: int = 0
    #: dead incarnations, kept for their traces and counters
    archived: list[AdmissionService] = field(default_factory=list)

    @property
    def incarnations(self) -> list[AdmissionService]:
        return [*self.archived, self.service]


class AdmissionFabric:
    """N admission shards, one router, one supervisor, one clock."""

    def __init__(
        self,
        config: FabricConfig,
        shard_config: ServiceConfig,
        clock=None,
        skew: ExecutionSkew | None = None,
        seed: int = 0,
        checkpoint_dir: Path | str | None = None,
    ) -> None:
        from ..service.clock import VirtualClock
        self.config = config
        self.shard_config = shard_config
        self.clock = (
            clock if clock is not None else VirtualClock(shard_config.start)
        )
        self.skew = skew
        self.seed = seed
        self.trace = ExecutionTrace()     # fabric-level control plane
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.placement: SourcePlacement = place_sources(
            list(config.sources), config.shards,
            heuristic=config.heuristic, reserve=config.reserve,
        )
        self.shards: list[_Shard] = []
        for index in range(config.shards):
            path = (
                self.checkpoint_dir / f"shard-{index}.jsonl"
                if self.checkpoint_dir is not None else None
            )
            service = AdmissionService(
                self.shard_config, clock=self.clock, skew=skew,
                seed=seed, checkpoint_path=path,
            )
            self.shards.append(_Shard(
                index=index, service=service, checkpoint=path,
            ))
        self.router = ShardRouter(self)
        self.supervisor: Supervisor | None = (
            Supervisor(self, config.supervisor) if config.supervised
            else None
        )
        self.kills = 0
        #: request ids admitted on a takeover shard during failover
        self.failover_admits: list[tuple[str, int]] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AdmissionFabric":
        for shard in self.shards:
            shard.service.start()
        if self.supervisor is not None:
            self.supervisor.start()
        # arm every housekeeper and the supervisor at the start instant:
        # an immediate advance() past their first ticks must find them
        # on the heap, not arm them late
        self.clock.advance(self.clock.now())
        return self

    def kill_shard(self, index: int) -> None:
        """Crash one shard mid-flight — silently, as a real crash is.

        The shared clock is left running (sibling shards keep their
        timers); the supervisor discovers the death through missed
        heartbeats, never through this call.
        """
        shard = self.shards[index]
        shard.service.kill(cancel_clock=False)
        shard.alive = False
        self.kills += 1

    def restore_shard(self, index: int) -> AdmissionService:
        """Rebuild a dead shard from its write-ahead checkpoint."""
        shard = self.shards[index]
        if shard.checkpoint is None:
            raise FabricError(
                f"shard-{index} has no checkpoint to restore from "
                "(fabric built without checkpoint_dir)"
            )
        shard.archived.append(shard.service)
        service = AdmissionService.restore(
            shard.checkpoint, config=self.shard_config,
            clock=self.clock, skew=self.skew,
        )
        shard.service = service
        shard.alive = True
        shard.incarnation += 1
        return service

    def drain(self) -> dict[int, DrainReport]:
        """Stop supervision, then drain every live shard in order."""
        if self.supervisor is not None:
            self.supervisor.stop()
        reports: dict[int, DrainReport] = {}
        for shard in self.shards:
            if shard.alive:
                reports[shard.index] = shard.service.drain()
        return reports

    # -- router/supervisor callbacks ---------------------------------------

    def sources_homed_on(self, index: int) -> list[str]:
        """Declared sources whose *home* shard is ``index``."""
        return self.placement.sources_on(index)

    def note_failover_admit(self, request_id: str, shard: int) -> None:
        self.failover_admits.append((request_id, shard))

    @property
    def alive_count(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    # -- verification ------------------------------------------------------

    def merged_trace(self) -> ExecutionTrace:
        """Every incarnation's events + the control plane, one timeline.

        Service events carry their shard as a ``[shard-k]`` detail
        suffix; ordering is (time, shard, incarnation, append order)
        with control-plane events last at equal instants — fully
        deterministic, so two runs of the same seed merge identically.
        """
        planes = [
            _tagged(service.trace.events, f" [shard-{shard.index}]")
            for shard in self.shards for service in shard.incarnations
        ]
        planes.append(in_time_order(self.trace.events))
        merged = ExecutionTrace()
        merged.events = [
            event for _t, _i, event in merge_in_time_order(planes)
        ]
        return merged

    def finish(self, horizon: float | None = None):
        """Close the books: per-shard detector accounting plus the
        fabric-level monitor sweep over the merged timeline.  Returns
        ``(report, merged_trace)``.

        Every incarnation's detector is closed and the router and the
        supervisor drop their link back to the fabric, so a finished
        fabric frees by reference counting."""
        from ..verify.admission import AdmissionProtocolMonitor
        from ..verify.invariants import run_monitors
        at = horizon if horizon is not None else self.clock.now()
        for shard in self.shards:
            if shard.alive and shard.service.detector is not None:
                shard.service.detector.finish(at)
            for service in shard.incarnations:
                if service.detector is not None:
                    service.detector.close()
        merged = self.merged_trace()
        report = run_monitors(
            merged,
            [AdmissionProtocolMonitor(
                replan_window=self.shard_config.replan_window,
            )],
            horizon=at,
        )
        self.router.fabric = None
        if self.supervisor is not None:
            self.supervisor.fabric = None
        return report, merged

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        """JSON-ready fabric counters (all shards, all incarnations)."""
        decisions: dict[str, int] = {}
        totals = {
            "submitted": 0, "completed": 0, "shed": 0,
            "deadline_cuts": 0, "soft_misses": 0,
        }
        per_shard: dict[str, dict] = {}
        for shard in self.shards:
            shard_decisions: dict[str, int] = {}
            for service in shard.incarnations:
                for key in totals:
                    totals[key] += getattr(service, key)
                for decision, count in service.decisions.items():
                    decisions[decision] = decisions.get(decision, 0) + count
                    shard_decisions[decision] = (
                        shard_decisions.get(decision, 0) + count
                    )
            per_shard[f"shard-{shard.index}"] = {
                "alive": shard.alive,
                "incarnation": shard.incarnation,
                "decisions": shard_decisions,
                "in_flight": shard.service.planner.backlog,
                "twin_hash": shard.service.twin.state_hash(),
            }
        supervisor = self.supervisor
        return {
            **totals,
            "decisions": decisions,
            "routed": self.router.routed,
            "deduplicated": self.router.deduplicated,
            "unreachable": self.router.unreachable,
            "failover_routed": self.router.failover_routed,
            "browned_out": self.router.browned_out,
            "kills": self.kills,
            "declared_down": (
                supervisor.declared_down if supervisor is not None else 0
            ),
            "restored": (
                supervisor.restored if supervisor is not None else 0
            ),
            "failover_latencies": (
                list(supervisor.failover_latencies)
                if supervisor is not None else []
            ),
            "failover_admits": len(self.failover_admits),
            "shards": per_shard,
        }

    def state_hash(self) -> str:
        """One stable digest over every live shard's twin state."""
        import hashlib
        digest = hashlib.sha256()
        for shard in self.shards:
            digest.update(f"shard-{shard.index}:".encode())
            digest.update(shard.service.twin.state_hash().encode())
        return digest.hexdigest()

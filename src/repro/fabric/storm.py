"""Seeded chaos storm for the sharded admission fabric.

Extends the PR 6 Poisson storm to the fabric: the same deterministic
arrival stream fans out through the :class:`~repro.fabric.router.
ShardRouter` onto N supervised shards while scheduled
:class:`ShardKill` events crash shards mid-burst (optionally corrupting
their checkpoint tails, to exercise the CRC torn-record skip on
restore).  The supervisor notices the frozen heartbeats, declares the
shard down, fails its sources over to siblings with spare bucket
capacity, and restores it from the write-ahead checkpoint after the
restart delay.

The report's pass criteria mirror the acceptance bar: zero
:class:`~repro.verify.admission.AdmissionProtocolMonitor` violations on the
merged cross-shard timeline, zero double-admitted request ids, and
every hard-deadline request either met or explicitly SHED.  A
single-shard unsupervised fabric replays the plain service storm
byte-for-byte (same twin hash), which pins the fabric's overhead to
exactly zero semantic drift.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path

from ..faults.injectors import ExecutionSkew
from ..sim.trace import TraceEventKind
from ..workload.rng import PortableRandom
from ..service.service import ServiceClient, ServiceConfig
from ..service.storm import (
    StormConfig,
    default_storm_service_config,
    storm_requests,
)
from .fabric import AdmissionFabric, FabricConfig
from .supervisor import SupervisorConfig

__all__ = ["ShardKill", "FabricStormConfig", "FabricStormReport",
           "run_fabric_storm"]


@dataclass(frozen=True)
class ShardKill:
    """One scheduled crash: kill ``shard`` at instant ``at``.

    ``corrupt_tail`` additionally appends a torn half-record to the
    shard's checkpoint (the artifact of dying mid-``append``), so the
    restore has to skip it via the per-line CRC.
    """

    at: float
    shard: int
    corrupt_tail: bool = False

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ValueError(f"kill instant must be > 0, got {self.at}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")


@dataclass(frozen=True)
class FabricStormConfig:
    """One seeded fabric storm: arrivals, topology, scheduled chaos."""

    # -- the arrival process (identical semantics to StormConfig) ------
    rate: float = 0.5
    horizon: float = 200.0
    seed: int = 0
    burst: tuple[float, float, float] | None = (60.0, 85.0, 4.0)
    cost_range: tuple[float, float] = (0.3, 1.5)
    deadline_factor: float = 8.0
    hard_fraction: float = 0.7
    optional_fraction: float = 0.3
    sources: int = 3
    drift_ppm: float = 0.0
    overrun_factor: float = 1.0
    overrun_probability: float = 0.0
    settle: float = 60.0
    # -- the fabric topology and chaos schedule ------------------------
    shards: int = 3
    reserve: float = 0.1
    supervised: bool = True
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    kills: tuple[ShardKill, ...] = ()
    #: fraction of arrivals a *second* client also submits (same
    #: request id — the duplicate-retry chaos the idempotency cache
    #: must absorb); 0.0 keeps the arrival drive byte-identical to the
    #: plain storm
    duplicate_fraction: float = 0.0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.sources < 1:
            raise ValueError(f"sources must be >= 1, got {self.sources}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.duplicate_fraction <= 1:
            raise ValueError(
                "duplicate_fraction must be in [0, 1], got "
                f"{self.duplicate_fraction}"
            )
        for kill in self.kills:
            if kill.shard >= self.shards:
                raise ValueError(
                    f"kill targets shard {kill.shard} but the fabric "
                    f"has {self.shards}"
                )

    @property
    def skew(self) -> ExecutionSkew:
        return ExecutionSkew(
            drift_ppm=self.drift_ppm,
            overrun_factor=self.overrun_factor,
            overrun_probability=self.overrun_probability,
        )

    def as_storm_config(self) -> StormConfig:
        """The equivalent single-service storm (same arrival stream)."""
        return StormConfig(
            rate=self.rate, horizon=self.horizon, seed=self.seed,
            burst=self.burst, cost_range=self.cost_range,
            deadline_factor=self.deadline_factor,
            hard_fraction=self.hard_fraction,
            optional_fraction=self.optional_fraction,
            sources=self.sources, drift_ppm=self.drift_ppm,
            overrun_factor=self.overrun_factor,
            overrun_probability=self.overrun_probability,
            settle=self.settle,
        )


@dataclass
class FabricStormReport:
    """What one fabric storm produced, fabric-wide."""

    config: FabricStormConfig
    horizon: float
    submitted: int = 0
    decisions: dict = field(default_factory=dict)
    completed: int = 0
    shed: int = 0
    deadline_cuts: int = 0
    soft_misses: int = 0
    routed: int = 0
    deduplicated: int = 0
    unreachable: int = 0
    failover_routed: int = 0
    browned_out: int = 0
    client_retries: int = 0
    duplicate_submissions: int = 0
    kills: int = 0
    declared_down: int = 0
    restored: int = 0
    failover_latencies: list = field(default_factory=list)
    failover_admits: int = 0
    #: request ids with more than one non-resumed RELEASE across the
    #: merged timeline — computed from the trace, independently of the
    #: router's own counters
    double_admitted: list = field(default_factory=list)
    hard_misses: int = 0
    violations: list = field(default_factory=list)
    twin_hashes: dict = field(default_factory=dict)
    state_hash: str = ""
    drained_completed: int = 0
    drained_shed: int = 0
    wall_seconds: float = 0.0
    per_shard: dict = field(default_factory=dict)
    #: the merged cross-shard trace (diagnostics; not serialised)
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def clean(self) -> bool:
        """The storm's pass criterion: verified-clean chaos."""
        return (not self.violations and not self.double_admitted
                and self.hard_misses == 0)

    @property
    def admitted(self) -> int:
        return self.decisions.get("admit", 0)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "submitted": self.submitted,
            "decisions": dict(self.decisions),
            "completed": self.completed,
            "shed": self.shed,
            "deadline_cuts": self.deadline_cuts,
            "soft_misses": self.soft_misses,
            "routed": self.routed,
            "deduplicated": self.deduplicated,
            "unreachable": self.unreachable,
            "failover_routed": self.failover_routed,
            "browned_out": self.browned_out,
            "client_retries": self.client_retries,
            "duplicate_submissions": self.duplicate_submissions,
            "kills": self.kills,
            "declared_down": self.declared_down,
            "restored": self.restored,
            "failover_latencies": [
                round(x, 6) for x in self.failover_latencies
            ],
            "failover_admits": self.failover_admits,
            "double_admitted": list(self.double_admitted),
            "hard_misses": self.hard_misses,
            "violations": list(self.violations),
            "twin_hashes": dict(self.twin_hashes),
            "state_hash": self.state_hash,
            "drained_completed": self.drained_completed,
            "drained_shed": self.drained_shed,
            "wall_seconds": round(self.wall_seconds, 3),
            "per_shard": dict(self.per_shard),
        }


def _corrupt_tail(path: Path) -> None:
    """Append the torn half-record a mid-``append`` crash leaves."""
    with open(path, "ab") as handle:
        handle.write(b'{"op": "admit", "t": 999999, "requ')


def _drive(fabric: AdmissionFabric, config: FabricStormConfig,
           report: FabricStormReport) -> None:
    clock = fabric.clock
    clients = {
        f"src-{i}": ServiceClient(
            fabric.router, seed=config.seed * 1009 + i,
            max_attempts=config.max_attempts,
        )
        for i in range(config.sources)
    }
    # the duplicate layer only exists (and only draws randomness) when
    # enabled, so duplicate_fraction=0.0 keeps the drive byte-identical
    # to the plain service storm
    dup_rng = None
    dup_clients: dict[str, ServiceClient] = {}
    if config.duplicate_fraction > 0:
        dup_rng = PortableRandom(config.seed * 7919 + 13)
        dup_clients = {
            f"src-{i}": ServiceClient(
                fabric.router, seed=config.seed * 7919 + i,
                max_attempts=config.max_attempts,
            )
            for i in range(config.sources)
        }
    kills = sorted(config.kills, key=lambda k: (k.at, k.shard))
    next_kill = 0

    def apply_kills_until(when: float) -> None:
        nonlocal next_kill
        while next_kill < len(kills) and kills[next_kill].at <= when:
            kill = kills[next_kill]
            next_kill += 1
            clock.advance(kill.at)
            fabric.kill_shard(kill.shard)
            checkpoint = fabric.shards[kill.shard].checkpoint
            if kill.corrupt_tail and checkpoint is not None:
                _corrupt_tail(checkpoint)

    for when, request in storm_requests(config.as_storm_config()):
        apply_kills_until(when)
        clock.advance(when)
        clients[request.source].submit(request)
        if dup_rng is not None and (
            dup_rng.random() < config.duplicate_fraction
        ):
            # an impatient client re-submitting the same request id
            report.duplicate_submissions += 1
            dup_clients[request.source].submit(request)
    tail = config.horizon + config.settle
    apply_kills_until(tail)
    clock.advance(tail)
    # ride out any still-down shard's restore window before draining,
    # so its resumed in-flight work reaches a terminal
    if fabric.supervisor is not None and fabric.checkpoint_dir is not None:
        for _ in range(200):
            if fabric.alive_count == len(fabric.shards):
                break
            clock.advance(clock.now() + fabric.supervisor.interval)
    drained = fabric.drain()
    report.drained_completed = sum(d.completed for d in drained.values())
    report.drained_shed = sum(d.shed for d in drained.values())
    report.horizon = clock.now()
    report.client_retries = sum(c.retries for c in clients.values())
    report.client_retries += sum(c.retries for c in dup_clients.values())


def run_fabric_storm(
    config: FabricStormConfig,
    shard_config: ServiceConfig | None = None,
    checkpoint_dir: Path | str | None = None,
) -> FabricStormReport:
    """Run one seeded fabric storm through its chaos schedule.

    ``checkpoint_dir`` receives one write-ahead JSONL log per shard; it
    is mandatory when the schedule kills shards (the supervisor restores
    from checkpoint — without one a killed shard stays dead and its
    in-flight work is flagged by the monitor, which is the point of the
    invariant, not of the harness).
    """
    if config.kills and config.supervised and checkpoint_dir is None:
        raise ValueError(
            "a supervised storm with scheduled kills needs a "
            "checkpoint_dir to restore shards from"
        )
    if shard_config is None:
        shard_config = default_storm_service_config()
    skew = config.skew if config.skew.active else None
    fabric_config = FabricConfig(
        shards=config.shards,
        sources=tuple(f"src-{i}" for i in range(config.sources)),
        reserve=config.reserve,
        supervised=config.supervised,
        supervisor=config.supervisor,
    )
    report = FabricStormReport(config=config, horizon=config.horizon)
    wall_start = _time.perf_counter()

    fabric = AdmissionFabric(
        fabric_config, shard_config, skew=skew, seed=config.seed,
        checkpoint_dir=checkpoint_dir,
    ).start()
    _drive(fabric, config, report)
    report.wall_seconds = _time.perf_counter() - wall_start
    metrics = fabric.metrics()
    report.submitted = metrics["submitted"]
    report.decisions = metrics["decisions"]
    report.completed = metrics["completed"]
    report.shed = metrics["shed"]
    report.deadline_cuts = metrics["deadline_cuts"]
    report.soft_misses = metrics["soft_misses"]
    report.routed = metrics["routed"]
    report.deduplicated = metrics["deduplicated"]
    report.unreachable = metrics["unreachable"]
    report.failover_routed = metrics["failover_routed"]
    report.browned_out = metrics["browned_out"]
    report.kills = metrics["kills"]
    report.declared_down = metrics["declared_down"]
    report.restored = metrics["restored"]
    report.failover_latencies = metrics["failover_latencies"]
    report.failover_admits = metrics["failover_admits"]
    report.per_shard = metrics["shards"]
    report.twin_hashes = {
        name: shard["twin_hash"]
        for name, shard in metrics["shards"].items()
    }
    report.state_hash = fabric.state_hash()
    verification, merged = fabric.finish(report.horizon)
    report.violations = [str(v) for v in verification.violations]
    report.trace = merged
    releases: dict[str, int] = {}
    for event in merged.events:
        if event.kind is TraceEventKind.RELEASE and (
            not event.detail.startswith("resumed")
        ):
            releases[event.subject] = releases.get(event.subject, 0) + 1
        elif event.kind is TraceEventKind.DEADLINE_MISS and (
            "soft" not in event.detail
        ):
            report.hard_misses += 1
    report.double_admitted = sorted(
        rid for rid, count in releases.items() if count > 1
    )
    return report

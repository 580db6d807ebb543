"""Seeded Poisson-storm harness for the admission service.

Drives an :class:`~repro.service.service.AdmissionService` on a
:class:`~repro.service.clock.VirtualClock` with a Poisson arrival
stream of aperiodic event requests — optionally under injected
execution skew (timer drift + WCET overruns) — and returns a
:class:`StormReport` with the robustness evidence the acceptance
criteria ask for:

* zero invariant-monitor violations (hard deadlines met or explicitly
  SHED, nothing silently dropped, no un-caused re-planning);
* divergence and re-plan tallies, re-plan latency (wall seconds) and
  admission throughput (decisions per wall second);
* overload recovery: time spent degraded and the mode at the horizon.

``kill_at`` aborts the run mid-storm (crash simulation) and reports the
twin state hash, so the restart test can resume from the checkpoint and
compare hashes.  Everything is deterministic under ``seed``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from ..faults.injectors import ExecutionSkew
from ..sim.trace import TraceEventKind
from ..workload.rng import PortableRandom
from .clock import VirtualClock
from .requests import EventRequest
from .service import AdmissionService, ServiceClient, ServiceConfig

__all__ = ["StormConfig", "StormReport", "default_storm_service_config",
           "run_service_storm", "storm_requests"]


def default_storm_service_config() -> ServiceConfig:
    """The storm harnesses' shared service tuning (one shard's worth).

    capacity/period = 1 tu/tu; the watermarks sit just below it so
    overload is an excursion the detector rides out, not the steady
    state (the library DetectorConfig defaults target the much
    lower-utilization simulator campaigns).  The fabric storm reuses
    this verbatim so a single-shard fabric is byte-identical to the
    plain service on the same seed.
    """
    from ..overload.config import DetectorConfig
    return ServiceConfig(
        capacity=2.0, period=2.0,
        detector=DetectorConfig(
            high_watermark=0.9, low_watermark=0.7,
            shed_threshold=4, quiescence=15.0,
            # gentle degradation: still admits the typical request — a
            # scale that rejects the median cost makes every rejected
            # client's retries re-feed the demand estimator and wedges
            # the detector above its low watermark
            service_scale=0.75,
        ),
    )


@dataclass(frozen=True)
class StormConfig:
    """One seeded storm: arrival process, request mix, injected skew."""

    rate: float = 0.5              # arrivals per tu (Poisson)
    horizon: float = 200.0         # last arrival instant
    seed: int = 0
    #: (start, end, rate multiplier) — a deterministic overload burst
    #: that pushes demand over the watermark mid-storm
    burst: tuple[float, float, float] | None = (60.0, 85.0, 4.0)
    cost_range: tuple[float, float] = (0.3, 1.5)
    deadline_factor: float = 8.0   # relative deadline ~ factor x cost
    hard_fraction: float = 0.7
    optional_fraction: float = 0.3  # of the soft requests
    sources: int = 3
    drift_ppm: float = 0.0
    overrun_factor: float = 1.0
    overrun_probability: float = 0.0
    kill_at: float | None = None
    settle: float = 60.0           # quiet tail before drain (recovery)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.sources < 1:
            raise ValueError(f"sources must be >= 1, got {self.sources}")

    @property
    def skew(self) -> ExecutionSkew:
        return ExecutionSkew(
            drift_ppm=self.drift_ppm,
            overrun_factor=self.overrun_factor,
            overrun_probability=self.overrun_probability,
        )


@dataclass
class StormReport:
    """What one storm run produced."""

    config: StormConfig
    horizon: float
    submitted: int = 0
    decisions: dict = field(default_factory=dict)
    completed: int = 0
    shed: int = 0
    deadline_cuts: int = 0
    soft_misses: int = 0
    divergences: dict = field(default_factory=dict)
    replans: dict = field(default_factory=dict)
    replans_suppressed: int = 0
    replan_latency_s: dict = field(default_factory=dict)
    client_retries: int = 0
    admissions_per_sec: float = 0.0
    wall_seconds: float = 0.0
    time_in_degraded: float = 0.0
    mode_at_end: str = "normal"
    violations: list = field(default_factory=list)
    twin_hash: str = ""
    killed: bool = False
    resumed_from_hash: str = ""
    hard_misses: int = 0
    drained_completed: int = 0
    drained_shed: int = 0
    #: the service's execution trace (diagnostics; excluded from
    #: ``to_dict`` so reports stay JSON-serialisable and comparable)
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def clean(self) -> bool:
        """Zero invariant violations — the storm's pass criterion."""
        return not self.violations

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
            "divergences": dict(self.divergences),
            "replans": dict(self.replans),
            "replans_suppressed": self.replans_suppressed,
            "replan_latency_s": dict(self.replan_latency_s),
            "client_retries": self.client_retries,
            "admissions_per_sec": round(self.admissions_per_sec, 1),
            "wall_seconds": round(self.wall_seconds, 3),
            "time_in_degraded": round(self.time_in_degraded, 3),
            "mode_at_end": self.mode_at_end,
            "violations": list(self.violations),
            "twin_hash": self.twin_hash,
            "killed": self.killed,
            "resumed_from_hash": self.resumed_from_hash,
            "hard_misses": self.hard_misses,
        }


def storm_requests(config: StormConfig) -> list[tuple[float, EventRequest]]:
    """The storm's deterministic arrival list: (time, request) pairs."""
    rng = PortableRandom(config.seed)
    lo, hi = config.cost_range
    out: list[tuple[float, EventRequest]] = []
    t = 0.0
    index = 0
    while True:
        rate = config.rate
        if config.burst is not None:
            start, end, mult = config.burst
            if start <= t < end:
                rate = config.rate * mult
        t += rng.exponential(1.0 / rate)
        if t > config.horizon:
            break
        cost = rng.uniform(lo, hi)
        deadline = cost * config.deadline_factor * rng.uniform(0.8, 1.2)
        hard = rng.random() < config.hard_fraction
        optional = (not hard) and rng.random() < config.optional_fraction
        source = f"src-{index % config.sources}"
        out.append((t, EventRequest(
            request_id=f"req-{index:05d}", cost=cost,
            relative_deadline=deadline, hard=hard, optional=optional,
            source=source,
        )))
        index += 1
    return out


def _drive(service: AdmissionService, config: StormConfig,
           report: StormReport) -> None:
    clock = service.clock
    resumed_at = clock.now()   # > 0 when resuming from a checkpoint
    clients = {
        f"src-{i}": ServiceClient(
            service, seed=config.seed * 1009 + i, max_attempts=4
        )
        for i in range(config.sources)
    }
    for when, request in storm_requests(config):
        if when <= resumed_at:
            continue   # the pre-crash run already decided this arrival
        if config.kill_at is not None and when >= config.kill_at:
            clock.advance(config.kill_at)
            report.killed = True
            report.twin_hash = service.twin.state_hash()
            service.kill()
            report.horizon = clock.now()
            return
        clock.advance(when)
        clients[request.source].submit(request)
    # quiet tail: let in-flight work settle and overload recovery land
    clock.advance(config.horizon + config.settle)
    drained = service.drain()
    report.drained_completed = drained.completed
    report.drained_shed = drained.shed
    report.horizon = clock.now()
    report.twin_hash = service.twin.state_hash()
    report.client_retries = sum(c.retries for c in clients.values())


def run_service_storm(
    config: StormConfig,
    service_config: ServiceConfig | None = None,
    checkpoint_path=None,
    resume: bool = False,
) -> StormReport:
    """Run one seeded storm to completion (or to ``kill_at``).

    With ``resume=True``, ``checkpoint_path`` must name the JSONL log a
    killed run left behind: the service is rebuilt from it (the report's
    ``resumed_from_hash`` is the twin hash at that instant, for
    comparison against the killed run's ``twin_hash``) and the storm
    continues with the arrivals the crash never saw.
    """
    if service_config is None:
        service_config = default_storm_service_config()
    skew = config.skew if config.skew.active else None
    report = StormReport(config=config, horizon=config.horizon)
    wall_start = _time.perf_counter()

    if resume:
        service = AdmissionService.restore(
            checkpoint_path, config=service_config, skew=skew,
        )
        report.resumed_from_hash = service.twin.state_hash()
    else:
        service = AdmissionService(
            service_config,
            clock=VirtualClock(service_config.start),
            skew=skew,
            seed=config.seed,
            checkpoint_path=checkpoint_path,
        ).start()
    _drive(service, config, report)
    report.wall_seconds = _time.perf_counter() - wall_start
    metrics = service.metrics()
    report.submitted = metrics["submitted"]
    report.decisions = metrics["decisions"]
    report.completed = metrics["completed"]
    report.shed = metrics["shed"]
    report.deadline_cuts = metrics["deadline_cuts"]
    report.soft_misses = metrics["soft_misses"]
    report.divergences = metrics["divergences"]
    report.replans = metrics["replans"]
    report.replans_suppressed = metrics["replans_suppressed"]
    report.replan_latency_s = metrics["replan_latency_s"]
    report.trace = service.trace
    # a hard-deadline DEADLINE_MISS would also be a monitor violation;
    # counted here so the acceptance check does not depend on monitors
    report.hard_misses = sum(
        1 for e in service.trace.events
        if e.kind is TraceEventKind.DEADLINE_MISS
        and "soft" not in e.detail
    )
    if report.wall_seconds > 0:
        report.admissions_per_sec = (
            report.submitted / report.wall_seconds
        )
    if service.detector is not None:
        report.time_in_degraded = service.detector.time_in_degraded
        report.mode_at_end = service.detector.mode
    if not report.killed:
        verification = service.finish(report.horizon)
        report.violations = [str(v) for v in verification.violations]
    return report

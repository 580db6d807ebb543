"""The admission service, run as timer actions on one logical clock.

:class:`AdmissionService` is the tentpole of the service layer: a
stream-facing server that, per submitted :class:`~repro.service.
requests.EventRequest`,

1. decides **admit/reject in O(1)** (Section 7 bucket arithmetic via
   the :class:`~repro.service.planner.IncrementalPlanner`), gated by
   the PR 3 overload stack — per-source circuit breakers, a bounded
   pending queue, degraded-mode shedding of optionals;
2. **executes** the admitted event on the logical clock, under injected
   execution skew (timer drift, WCET overruns) when a
   :class:`~repro.faults.injectors.ExecutionSkew` is attached;
3. **reconciles** the actual outcome against the digital twin's promise
   and, on divergence, **re-plans** with bounded escalation:
   local repair → budget re-negotiation → degraded mode;
4. guards hard deadlines: an admitted hard event that can no longer
   finish in time is *cut* at its deadline and explicitly SHED — it is
   never allowed to miss silently.

Every state mutation is written ahead to the JSONL checkpoint, so
:meth:`AdmissionService.restore` rebuilds a byte-identical twin after a
kill.  Nothing suspends: execution steps, housekeeping heartbeats and
client retries are timer actions on the service's
:class:`~repro.service.clock.VirtualClock`, so an entire service run is
a deterministic sequence of synchronous steps.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from ..faults.injectors import ExecutionSkew
from ..overload.breaker import CircuitBreaker
from ..overload.config import BreakerConfig, DetectorConfig
from ..overload.detector import OverloadDetector
from ..sim.trace import ExecutionTrace, TraceEventKind
from .checkpoint import CheckpointError, CheckpointLog, replay_ops
from .clock import Timer, VirtualClock
from .planner import IncrementalPlanner
from .requests import AdmissionTicket, Decision, EventRequest, IdempotencyCache
from .twin import BUDGET_DRIFT, DigitalTwin, Divergence, TwinConfig

__all__ = ["ServiceConfig", "DrainReport", "AdmissionService",
           "ServiceClient"]

_EPS = 1e-9
#: the decision counters' keys, resolved once: on CPython 3.11 an Enum
#: member's ``.value`` runs Python code
_ADMIT = Decision.ADMIT.value
_REJECT_DEADLINE = Decision.REJECT_DEADLINE.value
_REJECT_OVERLOAD = Decision.REJECT_OVERLOAD.value
_REJECT_BREAKER = Decision.REJECT_BREAKER.value
_REJECT_DEGRADED = Decision.REJECT_DEGRADED.value
_REJECT_DRAINING = Decision.REJECT_DRAINING.value
#: re-plans allowed inside one ``replan_window`` before the service
#: escalates straight to degraded mode instead of thrashing
_MAX_REPLANS_PER_WINDOW = 16


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one admission service instance.

    ``capacity``/``period`` parameterise the polling-server budget the
    bucket arithmetic admits against.  ``queue_bound`` caps the number
    of concurrently admitted (in-flight) events; ``None`` disables it.
    ``breaker``/``detector`` wire the PR 3 overload stack (``None``
    disables the respective guard).  ``replan_window`` bounds the
    re-planning rate — a re-plan beyond the 16th inside one window
    escalates straight to degraded mode instead of thrashing.
    """

    capacity: float
    period: float
    start: float = 0.0
    queue_bound: int | None = 64
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    detector: DetectorConfig | None = field(
        default_factory=lambda: DetectorConfig(shed_threshold=3)
    )
    twin: TwinConfig = field(default_factory=TwinConfig)
    replan_window: float = 50.0
    idempotency_entries: int = 4096

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if self.queue_bound is not None and self.queue_bound < 1:
            raise ValueError(
                f"queue_bound must be >= 1, got {self.queue_bound}"
            )
        if self.replan_window <= 0:
            raise ValueError(
                f"replan_window must be > 0, got {self.replan_window}"
            )


@dataclass(frozen=True)
class DrainReport:
    """Outcome of a graceful shutdown."""

    started_at: float
    horizon: float
    completed: int
    shed: int


class _DegradeAction:
    """Bridges the overload detector's mode changes to the planner."""

    def __init__(self, service: "AdmissionService") -> None:
        self.service = service

    def degrade(self, now: float) -> None:
        self.service._enter_degraded(now, "overload watermark",
                                     via_detector=True)

    def restore(self, now: float) -> None:
        self.service._exit_degraded(now, via_detector=True)


class AdmissionService:
    """Admit → execute → reconcile → re-plan, on one logical clock."""

    def __init__(
        self,
        config: ServiceConfig,
        clock=None,
        skew: ExecutionSkew | None = None,
        seed: int = 0,
        checkpoint_path=None,
        _resume: tuple[IncrementalPlanner, DigitalTwin] | None = None,
    ) -> None:
        self.config = config
        self.clock = clock if clock is not None else VirtualClock(config.start)
        self.skew = skew
        self.seed = seed
        self.trace = ExecutionTrace()
        self.log: CheckpointLog | None = (
            CheckpointLog(checkpoint_path) if checkpoint_path else None
        )
        if _resume is not None:
            self.planner, self.twin = _resume
        else:
            self.planner = IncrementalPlanner(
                capacity=config.capacity, period=config.period,
                start=config.start,
            )
            self.twin = DigitalTwin(config=config.twin, planner=self.planner)
            if self.log is not None:
                if self.log.exists():
                    raise CheckpointError(
                        f"checkpoint {self.log.path} already exists — use "
                        "AdmissionService.restore() to resume it"
                    )
                self.log.write_header(
                    config.capacity, config.period, config.start,
                    config.twin, seed,
                )
        self.cache = IdempotencyCache(max_entries=config.idempotency_entries)
        self.detector: OverloadDetector | None = None
        if config.detector is not None:
            self.detector = OverloadDetector(
                config.detector, name="service", trace=self.trace
            ).add_action(_DegradeAction(self))
        self._breakers: dict[str, CircuitBreaker] = {}
        self._requests: dict[str, EventRequest] = {}   # in-flight registry
        #: the one pending executor step of each in-flight job
        self._executors: dict[str, Timer] = {}
        self._housekeeper: Timer | None = None
        self.draining = False
        self.killed = False
        #: housekeeping wake counter — the liveness beat a fabric
        #: supervisor watches (a killed service's counter freezes)
        self.heartbeats = 0
        self._degraded = False          # planner-side degraded state
        self._self_degraded = False     # entered by replan-budget escalation
        self._replan_times: list[float] = []
        self._last_divergence_at: float | None = None
        #: ids re-announced from a replayed checkpoint by :meth:`start`
        self._resumed: list[str] = []
        #: wall-clock seconds per repair (benchmark signal)
        self.replan_latencies: list[float] = []
        self.replans_suppressed = 0
        # counters
        self.submitted = 0
        self.decisions: dict[str, int] = {d.value: 0 for d in Decision}
        self.completed = 0
        self.shed = 0
        self.deadline_cuts = 0
        self.soft_misses = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AdmissionService":
        """Queue the first housekeeping arm (and, after a restore, the
        first executor step of every in-flight job)."""
        now = self.clock.now()
        for rid, job in sorted(self.planner.jobs.items()):
            if rid not in self._requests:
                # a job resumed from the checkpoint: re-announce it so
                # the fresh trace records its admission
                self._requests[rid] = job.request
                self._resumed.append(rid)
                self.trace.add_event(
                    now, TraceEventKind.RELEASE, rid,
                    detail=f"resumed cost={job.request.cost:g} "
                           f"deadline={job.deadline:g}"
                           f"{' hard' if job.request.hard else ' soft'}",
                )
            if rid not in self._executors:
                self._spawn_executor(rid)
        if self._housekeeper is None:
            self._housekeeper = self.clock.call_soon(self._arm_housekeeping)
        return self

    @classmethod
    def restore(
        cls,
        checkpoint_path,
        config: ServiceConfig | None = None,
        clock=None,
        skew: ExecutionSkew | None = None,
    ) -> "AdmissionService":
        """Rebuild a killed service from its checkpoint and start it.

        The planner and twin are replayed through the live mutation
        code, so ``twin.state_hash()`` equals the killed instance's.
        In-flight jobs get fresh executor steps; their skewed actual
        finishes re-derive identically because :class:`ExecutionSkew`
        is keyed per (seed, request_id), not per draw order.
        """
        log = CheckpointLog(checkpoint_path)
        ops = log.load()
        planner, twin, header = replay_ops(ops)
        resume_at = max((op.get("t", 0.0) for op in ops[1:]),
                        default=header["start"])
        if config is None:
            config = ServiceConfig(
                capacity=header["capacity"], period=header["period"],
                start=header["start"], twin=twin.config,
            )
        if clock is None:
            clock = VirtualClock(start=resume_at)
        service = cls(
            config=config, clock=clock, skew=skew, seed=header["seed"],
            _resume=(planner, twin),
        )
        service.log = log
        service._degraded = planner.scale < 1.0 - _EPS
        return service.start()

    # -- submission (the client-facing edge) -------------------------------

    def submit(
        self, request: EventRequest, *, at: float | None = None
    ) -> AdmissionTicket:
        """One admission attempt; O(1) decision, idempotent by id.

        ``at`` anchors the decision on a caller-chosen logical stamp
        instead of ``clock.now()``: the gateway stamps each frame once
        at dispatch, journals the stamp, and submits with it, so a
        ``VirtualClock`` control run replaying the same (stamp, request)
        pairs reproduces the admission arithmetic bit-for-bit.  Stamps
        must be non-decreasing across calls.
        """
        now = at if at is not None else self.clock.now()
        self.submitted += 1
        cached = self.cache.get(request.request_id)
        if cached is not None:
            return replace(cached, duplicate=True)
        if request.request_id in self.planner.jobs:
            # in flight but not cached — a checkpoint-resumed job (the
            # idempotency cache is not persisted).  Still a duplicate:
            # never admit the same id twice.
            self.decisions[_ADMIT] += 1
            return AdmissionTicket(
                request.request_id, Decision.ADMIT, now,
                predicted_finish=self.planner.jobs[
                    request.request_id].predicted_finish,
                detail="already in flight (resumed)", duplicate=True,
            )
        if self.draining or self.killed:
            self.decisions[_REJECT_DRAINING] += 1
            return self._settle(AdmissionTicket(
                request.request_id, Decision.REJECT_DRAINING, now,
                detail="service draining",
            ))
        breaker = self._breaker_for(request.source)
        if breaker is not None and not breaker.allow(now):
            # deliberately NOT cached and NOT a recorded failure: the
            # rejection is the breaker doing its job, not new evidence
            self.decisions[_REJECT_BREAKER] += 1
            return AdmissionTicket(
                request.request_id, Decision.REJECT_BREAKER, now,
                detail=f"breaker open ({breaker.name})",
            )
        if self.detector is not None:
            self.detector.note_arrival(now, request.cost)
        if self._degraded and request.optional:
            self.decisions[_REJECT_DEGRADED] += 1
            return AdmissionTicket(
                request.request_id, Decision.REJECT_DEGRADED, now,
                detail="degraded mode sheds optional requests",
            )
        bound = self.config.queue_bound
        if bound is not None and self.planner.backlog >= bound:
            if self.detector is not None:
                self.detector.note_shed(now)
            if breaker is not None:
                breaker.record_failure(now)
            self.decisions[_REJECT_OVERLOAD] += 1
            return AdmissionTicket(
                request.request_id, Decision.REJECT_OVERLOAD, now,
                detail=f"pending queue full ({bound} in flight)",
            )
        job, predicted = self.planner.admit(now, request)
        if job is None:
            if predicted == float("inf") and (
                self.planner.scale < 1.0 - _EPS
                or self.planner.inflation > 1.0 + _EPS
            ):
                # would fit at full, un-inflated capacity — transient
                self.decisions[_REJECT_DEGRADED] += 1
                return AdmissionTicket(
                    request.request_id, Decision.REJECT_DEGRADED, now,
                    detail="cost exceeds degraded capacity",
                )
            detail = (
                "cost exceeds server capacity" if predicted == float("inf")
                else f"predicted finish {predicted:g} past deadline "
                     f"{now + request.relative_deadline:g}"
            )
            self.decisions[_REJECT_DEADLINE] += 1
            return self._settle(AdmissionTicket(
                request.request_id, Decision.REJECT_DEADLINE, now,
                predicted_finish=predicted,
                deadline=now + request.relative_deadline, detail=detail,
            ))
        # committed: log ahead, trace, observe, execute
        if self.log is not None:
            self.log.append(
                {"op": "admit", "t": now, "request": request.to_dict()}
            )
        self.trace.add_event(
            now, TraceEventKind.RELEASE, request.request_id,
            detail=f"cost={request.cost:g} deadline={job.deadline:g}"
                   f"{' hard' if request.hard else ' soft'}"
                   f"{' optional' if request.optional else ''}",
        )
        self.twin.observe_admit(now, job)
        self._requests[request.request_id] = request
        self._spawn_executor(request.request_id)
        self.decisions[_ADMIT] += 1
        return self._settle(AdmissionTicket(
            request.request_id, Decision.ADMIT, now,
            predicted_finish=predicted, deadline=job.deadline,
            detail=f"promised finish {predicted:g}",
        ))

    def _settle(self, ticket: AdmissionTicket) -> AdmissionTicket:
        self.cache.put(ticket)
        return ticket

    def _breaker_for(self, source: str) -> CircuitBreaker | None:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(source)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config.breaker, name=source, trace=self.trace,
                detector=self.detector,
            )
            self._breakers[source] = breaker
        return breaker

    # -- execution ---------------------------------------------------------

    def _spawn_executor(self, request_id: str) -> None:
        self._executors[request_id] = self.clock.call_soon(
            self._execute, request_id
        )

    def _cancel_executor(self, request_id: str) -> None:
        timer = self._executors.pop(request_id, None)
        if timer is not None:
            timer.cancel()

    def _skew_factors(self, request_id: str) -> tuple[float, float] | None:
        """The request's ``(drift, overrun)`` skew, or ``None`` unskewed."""
        if self.skew is None or not self.skew.active:
            return None
        return self.skew.factors(self.seed, request_id)

    @staticmethod
    def _actual_outcome(job, factors) -> tuple[float, float]:
        """(actual_finish, served_cost) under the job's skew ``factors``."""
        declared = job.request.cost
        if factors is None:
            return job.slot.finish, declared
        drift, overrun = factors
        span = job.slot.finish - job.admitted_at
        actual = job.admitted_at + span * drift + declared * (overrun - 1.0)
        return actual, declared * overrun * drift

    def _execute(self, request_id: str,
                 factors: tuple[float, float] | None = None) -> None:
        """One executor step.  It re-validates the job, since a repair
        may have moved or shed it since the step was armed, then
        re-arms at the job's due time or cuts or completes it.  The
        job's first step draws its skew ``factors``; each step hands
        them to the one it re-arms."""
        del self._executors[request_id]
        job = self.planner.jobs.get(request_id)
        if job is None:
            return  # repaired away; the repair recorded the SHED
        if factors is None:
            factors = self._skew_factors(request_id)
        actual, served = self._actual_outcome(job, factors)
        due = min(actual, job.deadline) if job.request.hard else actual
        now = self.clock.now()
        if due > now + _EPS:
            self._executors[request_id] = self.clock.call_at(
                due, self._execute, request_id, factors
            )
        elif job.request.hard and actual > job.deadline + _EPS:
            self._cut(now, job, actual, served)
        else:
            self._complete(now, job, actual, served)

    def _complete(self, now: float, job, actual: float,
                  served: float) -> None:
        rid = job.request.request_id
        divergences = self.twin.reconcile(now, rid, actual, served)
        self.planner.retire(rid)
        self._requests.pop(rid, None)
        if self.log is not None:
            self.log.append({"op": "complete", "t": now, "id": rid,
                             "actual_finish": actual, "served": served})
        self.trace.add_event(
            now, TraceEventKind.COMPLETION, rid,
            detail=f"actual={actual:g} promised={job.slot.finish:g}",
        )
        self.trace.add_event(
            now, TraceEventKind.RECONCILE, rid,
            detail=f"served={served:g} declared={job.request.cost:g} "
                   f"drift~{self.twin.drift_estimate:.3f}",
        )
        breaker = self._breaker_for(job.request.source)
        if actual > job.deadline + _EPS:   # a *soft* request ran late
            self.soft_misses += 1
            self.trace.add_event(
                now, TraceEventKind.DEADLINE_MISS, rid,
                detail=f"soft deadline {job.deadline:g} missed",
            )
            if self.detector is not None:
                self.detector.note_miss(now)
            if breaker is not None:
                breaker.record_failure(now)
        elif breaker is not None:
            breaker.record_success(now)
        self.completed += 1
        if divergences:
            self._diverge(now, divergences)

    def _cut(self, now: float, job, actual: float, served: float) -> None:
        """Deadline guard: cut a hard event *at* its deadline, SHED it
        explicitly — never let it miss silently."""
        rid = job.request.request_id
        divergences = self.twin.reconcile(now, rid, actual, served, cut=True)
        self.planner.retire(rid)
        self.twin.observe_shed(now, rid)
        self._requests.pop(rid, None)
        self._log({"op": "cut", "t": now, "id": rid,
                   "actual_finish": actual, "served": served})
        self.trace.add_event(
            now, TraceEventKind.SHED, rid,
            detail=f"deadline-guard cut: would finish {actual:g} > "
                   f"deadline {job.deadline:g}",
        )
        breaker = self._breaker_for(job.request.source)
        if breaker is not None:
            breaker.record_failure(now)
        if self.detector is not None:
            self.detector.note_shed(now)
        self.deadline_cuts += 1
        self.shed += 1
        if divergences:
            self._diverge(now, divergences)

    # -- divergence → re-planning ------------------------------------------

    def _diverge(self, now: float, divergences: list[Divergence]) -> None:
        self._last_divergence_at = now
        for divergence in divergences:
            self.trace.add_event(
                now, TraceEventKind.DIVERGENCE,
                divergence.request_id or "twin",
                detail=f"{divergence.kind}: {divergence.detail}",
            )
        level = "local"
        if any(d.kind == BUDGET_DRIFT for d in divergences) and (
            self.twin.drift_estimate
            > self.twin.negotiated_drift * (1.0 + _EPS)
        ):
            level = "renegotiate"
        self._replan(now, level)

    def _replan(self, now: float, level: str) -> None:
        window_start = now - self.config.replan_window
        self._replan_times = [
            t for t in self._replan_times if t > window_start
        ]
        if len(self._replan_times) >= _MAX_REPLANS_PER_WINDOW:
            # re-plan budget exhausted: stop thrashing, escalate
            self.replans_suppressed += 1
            if not self._degraded:
                self._enter_degraded(now, "re-plan budget exhausted")
                self._self_degraded = True
            return
        self._replan_times.append(now)
        wall_start = _time.perf_counter()
        if level == "renegotiate":
            result = self.planner.renegotiate(now, self.twin.drift_estimate)
            self.twin.negotiated_drift = self.planner.inflation
        else:
            result = self.planner.repair(now, level=level)
        latency = _time.perf_counter() - wall_start
        self.replan_latencies.append(latency)
        self.twin.observe_replan(result.level)
        self._log({"op": "replan", "t": now, "level": result.level,
                   "inflation": self.planner.inflation,
                   "scale": self.planner.scale})
        self.trace.add_event(
            now, TraceEventKind.REPLAN, "service",
            detail=f"{result.level} kept={result.moved} "
                   f"shed={len(result.shed)} "
                   f"inflation={self.planner.inflation:.3f} "
                   f"scale={self.planner.scale:g}",
        )
        self._record_repair_sheds(now, result)

    def _record_repair_sheds(self, now: float, result) -> None:
        # no per-id "shed" op: replaying the "replan" op re-derives the
        # shed set deterministically (logging both would double-count)
        for rid in result.shed:
            self.twin.observe_shed(now, rid)
            self.trace.add_event(
                now, TraceEventKind.SHED, rid,
                detail=f"{result.level} re-plan infeasible",
            )
            request = self._requests.pop(rid, None)
            if request is not None:
                breaker = self._breaker_for(request.source)
                if breaker is not None:
                    breaker.record_failure(now)
            if self.detector is not None:
                self.detector.note_shed(now)
            self.shed += 1
            self._cancel_executor(rid)

    # -- degraded-mode lifecycle -------------------------------------------

    def _enter_degraded(self, now: float, reason: str,
                        via_detector: bool = False) -> None:
        if self._degraded:
            return
        self._degraded = True
        scale = (
            self.config.detector.service_scale
            if self.config.detector is not None else 0.5
        )
        if not via_detector:
            # the detector emits MODE_CHANGE itself before its actions
            self.trace.add_event(
                now, TraceEventKind.MODE_CHANGE, "service",
                detail=f"degraded ({reason})",
            )
        wall_start = _time.perf_counter()
        result = self.planner.degrade(now, scale)
        self.replan_latencies.append(_time.perf_counter() - wall_start)
        self._replan_times.append(now)
        self.twin.observe_replan(result.level)
        self._log({"op": "replan", "t": now, "level": result.level,
                   "inflation": self.planner.inflation,
                   "scale": self.planner.scale})
        self.trace.add_event(
            now, TraceEventKind.REPLAN, "service",
            detail=f"degrade kept={result.moved} shed={len(result.shed)} "
                   f"scale={scale:g} ({reason})",
        )
        self._record_repair_sheds(now, result)

    def _exit_degraded(self, now: float, via_detector: bool = False) -> None:
        if not self._degraded:
            return
        self._degraded = False
        self._self_degraded = False
        if not via_detector:
            self.trace.add_event(
                now, TraceEventKind.MODE_CHANGE, "service",
                detail="normal (recovered)",
            )
        result = self.planner.restore(now)
        self.twin.observe_replan(result.level)
        self._log({"op": "replan", "t": now, "level": result.level,
                   "inflation": self.planner.inflation,
                   "scale": self.planner.scale})
        self.trace.add_event(
            now, TraceEventKind.REPLAN, "service",
            detail=f"restore kept={result.moved} shed={len(result.shed)}",
        )
        # restoring capacity can only improve finishes — nothing sheds
        self._record_repair_sheds(now, result)

    # -- housekeeping (heartbeat + overload polling) -----------------------

    def _arm_housekeeping(self) -> None:
        self._housekeeper = self.clock.call_at(
            self.clock.now() + self.twin.config.heartbeat / 2.0,
            self._housekeeping,
        )

    def _housekeeping(self) -> None:
        """One half-heartbeat tick; it re-arms itself at its end."""
        if self.killed or self.draining:
            # drain() already wrote its cutoff op: a late heartbeat
            # tick must not pollute the checkpoint tail
            return
        self.heartbeats += 1
        now = self.clock.now()
        if self.twin.heartbeat_due(now):
            divergence = self.twin.note_heartbeat_miss(now)
            self._log({"op": "heartbeat_miss", "t": now})
            self._last_divergence_at = now
            self.trace.add_event(
                now, TraceEventKind.DIVERGENCE, "twin",
                detail=f"{divergence.kind}: {divergence.detail}",
            )
            self._replan(now, "local")
        if self.detector is not None:
            self.detector.poll(now)
        if self._self_degraded and self._last_divergence_at is not None:
            quiet_for = now - self._last_divergence_at
            quiescence = (
                self.config.detector.quiescence
                if self.config.detector is not None else 10.0
            )
            if quiet_for >= quiescence:
                self._exit_degraded(now)
        self._arm_housekeeping()

    # -- shutdown ----------------------------------------------------------

    def drain(self, max_wait: float | None = None) -> DrainReport:
        """Graceful shutdown: stop admitting, settle every in-flight
        event — completion, deadline-guard cut, or an explicit
        drain-cutoff SHED — by advancing the clock to the last settle
        instant, and return the tally.  Nothing is ever silently
        dropped."""
        now = self.clock.now()
        self.draining = True
        self._log({"op": "drain", "t": now})
        self.trace.add_event(
            now, TraceEventKind.MODE_CHANGE, "service", detail="draining"
        )
        # deterministic fate per in-flight job: settle time, or cutoff
        completed_before = self.completed
        shed_before = self.shed
        horizon = now
        settle_at: dict[str, float] = {}
        for rid, job in sorted(self.planner.jobs.items()):
            actual, _served = self._actual_outcome(
                job, self._skew_factors(rid)
            )
            settle_at[rid] = (
                min(actual, job.deadline) if job.request.hard else actual
            )
        if max_wait is not None:
            cutoff = now + max_wait
            for rid in sorted(settle_at):
                if settle_at[rid] > cutoff + _EPS:
                    self._shed_for_drain(now, rid)
                    settle_at.pop(rid)
        if settle_at:
            horizon = max(settle_at.values())
        self.clock.advance(horizon)
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            self._housekeeper = None
        return DrainReport(
            started_at=now, horizon=horizon,
            completed=self.completed - completed_before,
            shed=self.shed - shed_before,
        )

    def _shed_for_drain(self, now: float, rid: str) -> None:
        job = self.planner.jobs.get(rid)
        if job is None:
            return
        self.planner.retire(rid)
        self.twin.observe_shed(now, rid)
        self._requests.pop(rid, None)
        self._log({"op": "shed", "t": now, "id": rid})
        self.trace.add_event(
            now, TraceEventKind.SHED, rid,
            detail="drain cutoff: cannot settle before shutdown",
        )
        self.shed += 1
        self._cancel_executor(rid)

    def kill(self, *, cancel_clock: bool = True) -> None:
        """Crash simulation: stop everything abruptly, mid-flight.

        No draining, no final trace events — the checkpoint log is the
        only survivor, exactly as in a real power-loss.  Pass
        ``cancel_clock=False`` when the clock is shared with sibling
        services (a fabric): killing one shard must not cancel the
        others' timers."""
        self.killed = True
        for timer in self._executors.values():
            timer.cancel()
        self._executors.clear()
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            self._housekeeper = None
        if cancel_clock:
            self.clock.cancel_all()

    # -- gateway hooks -----------------------------------------------------

    def note_clock_pause(self, now: float, detail: str) -> None:
        """Register an externally detected wall-clock stall.

        A stalled event loop or a suspended process is a real divergence
        between the plan and reality: record it in the digital twin as a
        heartbeat miss (checkpointed, so restores replay it) rather than
        silently warping deadlines.
        """
        divergence = self.twin.note_heartbeat_miss(now)
        self._log({"op": "heartbeat_miss", "t": now})
        self._last_divergence_at = now
        self.trace.add_event(
            now, TraceEventKind.DIVERGENCE, "twin",
            detail=f"{divergence.kind}: {detail}",
        )

    # -- reporting ---------------------------------------------------------

    def _log(self, op: dict) -> None:
        if self.log is not None:
            self.log.append(op)

    def finish(self, horizon: float | None = None):
        """Close the books: detector accounting, then the verification
        sweep over the trace.  Returns the
        :class:`~repro.verify.violations.VerificationReport`."""
        from ..verify.admission import AdmissionProtocolMonitor
        from ..verify.invariants import (
            BreakerMonitor,
            MonotoneClockMonitor,
            run_monitors,
        )
        at = horizon if horizon is not None else self.clock.now()
        if self.detector is not None:
            self.detector.finish(at)
            self.detector.close()
        return run_monitors(self.trace, [
            BreakerMonitor(),
            AdmissionProtocolMonitor(
                replan_window=self.config.replan_window,
                admitted_before=self._resumed,
            ),
            MonotoneClockMonitor(),
        ], horizon=at)

    def metrics(self) -> dict:
        """JSON-ready operational counters."""
        latencies = self.replan_latencies
        return {
            "submitted": self.submitted,
            "decisions": dict(self.decisions),
            "completed": self.completed,
            "shed": self.shed,
            "deadline_cuts": self.deadline_cuts,
            "soft_misses": self.soft_misses,
            "in_flight": self.planner.backlog,
            "divergences": dict(self.twin.divergences),
            "replans": dict(self.twin.replans),
            "replans_suppressed": self.replans_suppressed,
            "replan_latency_s": {
                "count": len(latencies),
                "mean": (sum(latencies) / len(latencies)) if latencies
                        else 0.0,
                "max": max(latencies, default=0.0),
            },
            "drift_estimate": self.twin.drift_estimate,
            "negotiated_drift": self.twin.negotiated_drift,
            "degraded": self._degraded,
        }


class ServiceClient:
    """A well-behaved client: deadlines, idempotent retries, backoff.

    Serves any target with ``submit(request)`` and a ``clock``: an
    :class:`AdmissionService` or a fabric's
    :class:`~repro.fabric.router.ShardRouter`.  Retries only
    *retryable* rejections, always with the **same** request id (the
    idempotency contract), each one a timer action on the target's
    clock after the backoff policy's jittered delay.  Deterministic
    under a seed via :class:`~repro.workload.rng.PortableRandom`.  The
    client holds nothing for a request once it settles.
    """

    def __init__(self, target, backoff=None,
                 seed: int = 0, max_attempts: int = 4) -> None:
        from ..workload.rng import PortableRandom
        from .backoff import DEFAULT_BACKOFF
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.target = target
        self.backoff = backoff if backoff is not None else DEFAULT_BACKOFF
        self.max_attempts = max_attempts
        self._rng = PortableRandom(seed)
        self.retries = 0

    def submit(self, request: EventRequest) -> AdmissionTicket:
        """The target's ticket for the first attempt, unchanged; a
        retryable rejection schedules the next attempt on the target's
        clock."""
        return self._attempt(request, 1)

    def _attempt(self, request: EventRequest,
                 attempt: int) -> AdmissionTicket:
        ticket = self.target.submit(request)
        if ticket.retryable and attempt < self.max_attempts:
            self.retries += 1
            clock = self.target.clock
            clock.call_at(
                clock.now() + self.backoff.delay(attempt, self._rng),
                self._attempt, request, attempt + 1,
            )
        return ticket

"""The paper's evaluation campaign (Section 6, Tables 2-5).

Six sets of ten randomly generated systems, each run four ways:

* ``ps_sim``  — ideal Polling Server on the RTSS simulator (Table 2);
* ``ps_exec`` — framework ``PollingTaskServer`` on the emulated RTSJ VM
  with runtime overheads (Table 3);
* ``ds_sim``  — ideal Deferrable Server on RTSS (Table 4);
* ``ds_exec`` — framework ``DeferrableTaskServer`` on the VM (Table 5).

Both arms consume byte-identical workloads from
:mod:`repro.workload.generator`, and both report the paper's metrics
(AART / AIR / ASR) through :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace as _replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..core import (
    DeferrableTaskServer,
    PollingTaskServer,
    ServableAsyncEvent,
    ServableAsyncEventHandler,
    TaskServer,
    TaskServerParameters,
)
from ..rtsj import (
    AbsoluteTime,
    Compute,
    MAX_RT_PRIORITY,
    MIN_RT_PRIORITY,
    NS_PER_UNIT,
    OverheadModel,
    PeriodicParameters,
    PriorityParameters,
    RealtimeThread,
    RelativeTime,
    RTSJVirtualMachine,
    WaitForNextPeriod,
)
from ..sim import (
    AperiodicJob,
    FixedPriorityPolicy,
    IdealDeferrableServer,
    IdealPollingServer,
    RunMetrics,
    SetMetrics,
    Simulation,
    aggregate,
    measure_run,
)
from ..overload import wire_sim_servers
from ..overload.metrics import OverloadReport, measure_overload
from ..sim.servers.base import AperiodicServer
from ..sim.trace import CheckOnlyTrace, ExecutionTrace
from ..workload import GeneratedSystem, GenerationParameters, PAPER_SETS, RandomSystemGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig
    from ..faults.injectors import EventBurst, FaultPlan
    from ..overload.config import OverloadConfig
    from ..service.checkpoint import CheckpointLog
    from ..verify.violations import VerificationReport

__all__ = [
    "ARMS",
    "SystemResult",
    "CampaignResult",
    "OverloadCampaignResult",
    "OverloadRun",
    "RunPolicy",
    "RunRecord",
    "RunTimeout",
    "RunExhausted",
    "simulate_system",
    "execute_system",
    "run_campaign",
    "run_overload_campaign",
]

ARMS = ("ps_sim", "ps_exec", "ds_sim", "ds_exec")


class RunTimeout(Exception):
    """A single campaign run exceeded its wall-clock allowance."""


class CheckpointMismatch(ValueError):
    """A campaign checkpoint holds runs that another campaign wrote."""


class RunExhausted(Exception):
    """Fail-fast: a run used up its retry budget without succeeding.

    Raised (instead of a failure record being folded into the results)
    when the active :class:`RunPolicy` has ``fail_fast=True``.  Carries
    the final :class:`RunRecord` as a dict in ``args[0]`` so it survives
    pickling across the worker-pool boundary.
    """

    @property
    def record(self) -> "RunRecord":
        return RunRecord.from_dict(self.args[0])

    def __str__(self) -> str:
        data = self.args[0]
        return (
            f"run {data['arm']} set={tuple(data['set_key'])} "
            f"system={data['system_id']} gave up after "
            f"{data['attempts']} attempt(s): {data['status']}"
        )


@dataclass(frozen=True)
class RunPolicy:
    """Resilience policy for campaign runs.

    * ``timeout_s`` — wall-clock limit per run (``None`` = unlimited;
      enforced with ``SIGALRM``, so it is a no-op off the main thread or
      on platforms without POSIX signals);
    * ``max_retries`` — how many times a crashed/hung run is retried,
      each retry regenerating the system from a bumped master seed so a
      pathological random stream cannot wedge the sweep.  In all four
      campaigns retry ``attempt`` regenerates from ``seed +
      DEFAULT_BACKOFF.seed_bump(seed, attempt, scale=retry_seed_bump)``:
      the shared :class:`~repro.service.backoff.BackoffPolicy` bump,
      exponentially widening, jittered and deterministic under the
      master seed (see :func:`guarded`);
    * ``checkpoint_path`` — JSONL file of per-run records; an existing
      file is loaded on start and completed runs are skipped, so an
      interrupted campaign resumes instead of restarting;
    * ``fail_fast`` — raise :class:`RunExhausted` the moment any run
      exhausts its retry budget, instead of folding a failure record
      into the results (the CLI maps this to a non-zero exit).
    """

    timeout_s: float | None = None
    max_retries: int = 0
    retry_seed_bump: int = 1
    checkpoint_path: Path | None = None
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_seed_bump <= 0:
            raise ValueError(
                f"retry_seed_bump must be > 0, got {self.retry_seed_bump}"
            )


@dataclass
class RunRecord:
    """One (arm, set, system) run outcome — success or structured failure.

    ``payload`` carries arm-specific extra results as a JSON-serialisable
    dict (the multicore campaign stores its per-core metrics there); it
    round-trips through checkpoints untouched.
    """

    arm: str
    set_key: tuple[float, float]
    system_id: int
    status: str  # "ok" | "failed" | "timeout"
    attempts: int = 1
    error: str = ""
    metrics: RunMetrics | None = None
    payload: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "arm": self.arm,
            "set_key": list(self.set_key),
            "system_id": self.system_id,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.to_dict()
        if self.payload is not None:
            out["payload"] = self.payload
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            arm=data["arm"],
            set_key=tuple(data["set_key"]),
            system_id=data["system_id"],
            status=data["status"],
            attempts=data.get("attempts", 1),
            error=data.get("error", ""),
            metrics=(
                RunMetrics.from_dict(data["metrics"])
                if data.get("metrics") is not None else None
            ),
            payload=data.get("payload"),
        )


@contextmanager
def _time_limit(seconds: float | None):
    """Raise :class:`RunTimeout` if the block outlives ``seconds``.

    Uses ``SIGALRM``; silently degrades to no limit off the main thread
    or where the signal is unavailable (the retry/record machinery still
    catches crashes there).
    """
    if (
        seconds is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _periodic_burn(cost_ns: int):
    """Thread logic for a generated periodic task: burn, wait, repeat."""

    def logic(thread: RealtimeThread):
        while True:
            yield Compute(cost_ns)
            yield WaitForNextPeriod()

    return logic

_SIM_SERVERS = {"polling": IdealPollingServer, "deferrable": IdealDeferrableServer}
_EXEC_SERVERS = {"polling": PollingTaskServer, "deferrable": DeferrableTaskServer}


@dataclass
class SystemResult:
    """One system's outcome under one arm."""

    metrics: RunMetrics
    trace: ExecutionTrace
    #: the run's aperiodic job records (overload reporting input)
    jobs: list[AperiodicJob] = field(default_factory=list)
    #: monitor verdicts when the run was verified (``verify=True``)
    report: "VerificationReport | None" = None


@dataclass
class CampaignResult:
    """Aggregated campaign: ``tables[arm][(density, std)] -> SetMetrics``.

    ``records`` holds one :class:`RunRecord` per (arm, set, system) run
    when a :class:`RunPolicy` was active; ``failures`` is the subset that
    did not produce metrics — crashed or timed-out runs are *recorded*
    here instead of aborting the sweep.
    """

    tables: dict[str, dict[tuple[float, float], SetMetrics]] = field(
        default_factory=dict
    )
    records: list[RunRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[RunRecord]:
        return [r for r in self.records if r.status != "ok"]

    def table(self, arm: str) -> dict[tuple[float, float], SetMetrics]:
        if arm not in self.tables:
            raise KeyError(f"unknown arm {arm!r}; have {sorted(self.tables)}")
        return self.tables[arm]


def _check_trace_mode(trace_mode: str | None, verify: bool) -> None:
    if trace_mode not in (None, "object", "check"):
        raise ValueError(
            "trace_mode must be one of ('object', 'check'), "
            f"got {trace_mode!r}"
        )
    if verify and trace_mode == "check":
        raise ValueError(
            "trace_mode='check' stores no records for the monitors to "
            "read; verify with the default object trace"
        )


def simulate_system(system: GeneratedSystem,
                    policy: str = "polling",
                    enforcement: "EnforcementConfig | None" = None,
                    overload: "OverloadConfig | None" = None,
                    verify: bool = False,
                    trace_mode: str | None = None,
                    ) -> SystemResult:
    """Run one system on RTSS with the ideal version of ``policy``.

    The server is forced above every periodic task — the paper's standing
    requirement ("the server has to be the highest-priority task in the
    system"), regardless of the priority recorded in the spec.
    ``enforcement`` (optional) applies a cost-overrun policy to the
    server and the periodic entities (see :mod:`repro.faults`);
    ``overload`` (optional) bounds the server's pending queue, gates
    arrivals through a circuit breaker and drives degraded modes (see
    :mod:`repro.overload`); ``verify`` sweeps the finished trace with
    the standard :mod:`repro.verify` monitor battery and fills
    ``SystemResult.report`` (off = the byte-identical golden path).
    ``trace_mode`` selects the trace (see docs/performance.md):
    ``"object"`` (the default) stores it; ``"check"`` stores no records
    and only checks non-overlap, so ``SystemResult.trace`` reads empty
    and ``verify`` is refused.  The defaults are byte-identical to the
    historical behaviour.
    """
    _check_trace_mode(trace_mode, verify)
    server_cls = _SIM_SERVERS[policy]
    top = max(
        (t.priority for t in system.periodic_tasks),
        default=system.server.priority,
    )
    spec = _replace(system.server, priority=max(system.server.priority, top + 1))
    server: AperiodicServer = server_cls(
        spec, name=policy.upper(), enforcement=enforcement
    )
    sim = Simulation(
        FixedPriorityPolicy(),
        trace=CheckOnlyTrace() if trace_mode == "check" else None,
        enforcement=enforcement,
    )
    server.attach(sim, horizon=system.horizon)
    detector = wire_sim_servers(overload, sim, [server])
    for spec in system.periodic_tasks:
        sim.add_periodic_task(spec)
    jobs: list[AperiodicJob] = []
    submit = server.submit
    for event in system.events:
        job = AperiodicJob(
            name=f"h{event.event_id}",
            release=event.release,
            cost=event.cost,
            declared_cost=event.declared_cost,
        )
        jobs.append(job)
        sim.submit_aperiodic(job, submit)
    trace = sim.run(until=system.horizon)
    if detector is not None:
        detector.finish(system.horizon)
        detector.close()
    report = None
    if verify:
        from ..verify import (
            monitors_for_system,
            run_monitors,
            stamp_violations,
        )

        report = run_monitors(trace, monitors_for_system(
            system, servers=(server,), policy="fp",
            # enforcement cuts execution short and degraded modes rescale
            # service, so exact-demand accounting only holds without both
            check_demand=enforcement is None and overload is None,
        ), system.horizon)
        stamp_violations(trace, report)
    return SystemResult(
        metrics=measure_run(jobs), trace=trace, jobs=jobs, report=report
    )


def execute_system(
    system: GeneratedSystem,
    policy: str = "polling",
    overhead: OverheadModel | None = None,
    server_priority: int = MAX_RT_PRIORITY,
    queue: str = "fifo",
    safety_margin: RelativeTime | None = None,
    enforcement: "EnforcementConfig | None" = None,
    timer_drift_ppm: float = 0.0,
    overload: "OverloadConfig | None" = None,
    verify: bool = False,
    trace_mode: str | None = None,
) -> SystemResult:
    """Run one system's framework implementation on the emulated VM.

    Each aperiodic event becomes a :class:`ServableAsyncEvent` fired by a
    timer at its release instant (timer firings cost ISR time under the
    overhead model, reproducing the paper's "timers charged to fire the
    asynchronous events").  ``enforcement`` bounds handlers to their
    declared costs; ``timer_drift_ppm`` makes the VM's release timers
    drift (see :mod:`repro.faults`); ``overload`` bounds the server's
    pending queue, installs one circuit breaker per event source and
    drives degraded modes (see :mod:`repro.overload`).  ``trace_mode``
    takes :func:`simulate_system`'s values; any other raises
    ``ValueError``.
    """
    _check_trace_mode(trace_mode, verify)
    vm = RTSJVirtualMachine(
        overhead=overhead if overhead is not None else OverheadModel(),
        timer_drift_ppm=timer_drift_ppm,
        trace=CheckOnlyTrace() if trace_mode == "check" else None,
    )
    params = TaskServerParameters.from_spec(
        system.server, priority=server_priority
    )
    server_cls = _EXEC_SERVERS[policy]
    if policy == "polling":
        server: TaskServer = server_cls(
            params, queue=queue, safety_margin=safety_margin,
            enforcement=enforcement, overload=overload,
        )
    else:
        server = server_cls(
            params, safety_margin=safety_margin, enforcement=enforcement,
            overload=overload,
        )
    horizon_ns = round(system.horizon * NS_PER_UNIT)
    server.attach(vm, horizon_ns)
    detector = None
    if overload is not None and overload.active:
        from ..faults.watchdog import DeadlineMissWatchdog
        from ..overload import build_detector

        watchdog = vm.watchdog
        if watchdog is None and overload.detector is not None:
            watchdog = DeadlineMissWatchdog().attach_vm(vm)
        detector = build_detector(
            overload, vm.trace, [server], watchdog=watchdog
        )

    # periodic tasks run below the server: map their (arbitrary-scale)
    # spec priorities onto consecutive RTSJ priorities under the server's
    for rank, spec in enumerate(
        sorted(system.periodic_tasks, key=lambda t: t.priority, reverse=True)
    ):
        rtsj_priority = server_priority - 1 - rank
        if rtsj_priority < MIN_RT_PRIORITY:
            raise ValueError(
                "too many periodic tasks to fit below the server priority"
            )
        vm.add_thread(
            RealtimeThread(
                _periodic_burn(round(spec.execution_cost * NS_PER_UNIT)),
                PriorityParameters(rtsj_priority),
                PeriodicParameters(
                    AbsoluteTime.from_nanos(round(spec.offset * NS_PER_UNIT)),
                    RelativeTime.from_units(spec.period),
                ),
                name=spec.name,
            )
        )

    # The generated workload fires every ServableAsyncEvent exactly once,
    # so per-event breakers could never accumulate a failure window; the
    # campaign treats the whole generated stream as one logical source
    # and shares a single breaker across it.  (Applications with
    # recurring sources attach one breaker per event instead.)
    stream_breaker = None
    if overload is not None and overload.breaker is not None:
        from ..overload import build_breaker

        stream_breaker = build_breaker(
            overload, vm.trace, "events-breaker", detector
        )
    for event in system.events:
        handler = ServableAsyncEventHandler(
            cost=RelativeTime.from_units(event.declared_cost),
            server=server,
            # unset: the handler runs its declared cost
            actual_cost=(
                RelativeTime.from_units(event.actual_cost)
                if event.actual_cost is not None else None
            ),
            name=f"h{event.event_id}",
        )
        sae = ServableAsyncEvent(name=f"e{event.event_id}")
        sae.add_servable_handler(handler)
        sae.breaker = stream_breaker
        vm.schedule_timer_event(
            round(event.release * NS_PER_UNIT),
            lambda now, e=sae: e.fire(),
        )
    trace = vm.run(horizon_ns)
    if detector is not None:
        detector.finish(horizon_ns / NS_PER_UNIT)
        detector.close()
    report = None
    if verify:
        # the VM charges ISR/dispatch overheads and its servers are
        # non-resumable, so only the scheduling-agnostic monitors apply
        from ..verify.invariants import (
            BreakerMonitor,
            MonotoneClockMonitor,
            NonOverlapMonitor,
            ReleaseAccountingMonitor,
            run_monitors,
            stamp_violations,
        )

        report = run_monitors(trace, [
            NonOverlapMonitor(),
            MonotoneClockMonitor(),
            BreakerMonitor(),
            ReleaseAccountingMonitor(check_demand=False),
        ], horizon_ns / NS_PER_UNIT)
        stamp_violations(trace, report)
    jobs = server.jobs
    server.close()
    return SystemResult(
        metrics=measure_run(jobs), trace=trace, jobs=jobs, report=report,
    )


def _check_arms(arms: tuple[str, ...]) -> None:
    for arm in arms:
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r}; choose from {ARMS}")


def _run_arm(
    arm: str,
    system: GeneratedSystem,
    overhead: OverheadModel | None,
    enforcement: "EnforcementConfig | None",
    verify: bool = False,
) -> RunMetrics:
    # a campaign run keeps only its metrics, so both arms check
    # non-overlap as segments arrive and store no records; the monitors
    # sweep the stored records, so a verified run keeps the object trace
    policy = "polling" if arm.startswith("ps") else "deferrable"
    trace_mode = None if verify else "check"
    if arm.endswith("_sim"):
        result = simulate_system(
            system, policy, enforcement=enforcement, verify=verify,
            trace_mode=trace_mode,
        )
    else:
        result = execute_system(
            system, policy, overhead, enforcement=enforcement, verify=verify,
            trace_mode=trace_mode,
        )
    if result.report is not None and not result.report.ok:
        from ..verify.violations import VerificationError

        raise VerificationError(result.report.summary())
    return result.metrics


def _open_checkpoint(
    path: Path | None, campaign: str,
) -> tuple["CheckpointLog | None", dict[tuple, RunRecord]]:
    """The run log at ``path`` and its completed records, keyed
    ``(arm, set_key, system_id)``; ``(None, {})`` without a path.

    The log is a :class:`~repro.service.checkpoint.CheckpointLog`: each
    line carries a CRC, so a torn or corrupted record is skipped with a
    warning and that run simply re-executes.  Each line also names the
    ``campaign`` that wrote it, because the campaigns key their runs
    alike: a line of another campaign raises :class:`CheckpointMismatch`.
    A line without the name, written before lines carried it, loads as
    this campaign's.  Only the campaign *parent* process appends to the
    log (worker processes run with ``checkpoint_path=None``).
    """
    if path is None:
        return None, {}
    from ..service.checkpoint import CheckpointLog

    log = CheckpointLog(path)
    done: dict[tuple, RunRecord] = {}
    for op in log.load():
        writer = op.pop("campaign", campaign)
        if writer != campaign:
            raise CheckpointMismatch(
                f"checkpoint {path} holds runs of the {writer} campaign, "
                f"not of the {campaign} campaign"
            )
        record = RunRecord.from_dict(op)
        done[(record.arm, record.set_key, record.system_id)] = record
    return log, done


def _parallel_map(fn, tasks: list, workers: int,
                  mp_context=None) -> list:
    """Ordered map over ``tasks``, optionally on a process pool.

    With ``workers <= 1`` (or at most one task) the map runs inline in
    this process — preserving ``SIGALRM`` timeouts on the main thread.
    With more workers, tasks fan out over a ``multiprocessing`` pool;
    results come back in submission order, so downstream aggregation is
    bit-identical to a sequential sweep.  Each pool worker's task runs on
    that worker's main thread, so per-run ``SIGALRM`` timeouts still
    apply there.

    The pool uses an *explicit* start method rather than the platform
    default: ``fork`` where available (cheap, shares the parent's loaded
    modules), ``spawn`` otherwise.  Every worker entry point and task
    payload is picklable by qualified name, so the map produces the same
    ordered results under either method — ``mp_context`` (a context
    object or a start-method name like ``"spawn"``) pins one explicitly.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    ctx = mp_context
    if isinstance(ctx, str):
        ctx = multiprocessing.get_context(ctx)
    elif ctx is None:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks, chunksize=1)


class CampaignRun(NamedTuple):
    """One (arm, set, system) run of a campaign sweep.

    ``execute(arm, system)`` is the campaign's per-run function; it
    returns the run's ``(metrics, payload)``.  ``regenerate(seed,
    system_id)`` builds the run's system again from another master seed
    for a retry, with the campaign's fault plan re-applied.  Both are
    module-level functions or ``functools.partial``\\ s of them, so a run
    pickles by qualified name into a ``spawn`` worker.
    """

    arm: str
    set_key: tuple[float, float]
    system_id: int
    #: the master seed ``system`` was generated from
    seed: int
    #: what ``execute`` runs: a generated system, or the overload
    #: campaigns' ``(clean, burst)`` pair
    system: object
    execute: Callable
    regenerate: Callable

    @property
    def key(self) -> tuple:
        """``(arm, set_key, system_id)``, as the checkpoint keys it."""
        return self[:3]


def guarded(run: CampaignRun, policy: RunPolicy | None) -> RunRecord:
    """Run one campaign run and record its outcome.

    Without a policy the run is a direct call and an exception
    propagates: the paper campaign's unguarded golden path.  With one,
    a crash or a ``timeout_s`` overrun becomes a failure record, and
    each of up to ``max_retries`` retries regenerates the system from
    ``seed + DEFAULT_BACKOFF.seed_bump(seed, attempt,
    scale=retry_seed_bump)``, so a pathological random stream is routed
    around rather than hammered.  With ``fail_fast`` a run that uses up
    its retries raises :class:`RunExhausted` instead.
    """
    if policy is None:
        return _execute(run, run.system, attempts=1)
    system, attempts = run.system, 0
    while True:
        attempts += 1
        try:
            with _time_limit(policy.timeout_s):
                return _execute(run, system, attempts)
        except RunTimeout as exc:
            status, error = "timeout", str(exc)
        except Exception:
            # the innermost frames, where the run failed
            status, error = "failed", traceback.format_exc(limit=-5)
        if attempts > policy.max_retries:
            break
        from ..service.backoff import DEFAULT_BACKOFF

        seed = run.seed + DEFAULT_BACKOFF.seed_bump(
            run.seed, attempts, scale=policy.retry_seed_bump
        )
        system = run.regenerate(seed, run.system_id)
    record = RunRecord(
        arm=run.arm, set_key=run.set_key, system_id=run.system_id,
        status=status, attempts=attempts, error=error,
    )
    if policy.fail_fast:
        raise RunExhausted(record.to_dict())
    return record


def _execute(run: CampaignRun, system, attempts: int) -> RunRecord:
    metrics, payload = run.execute(run.arm, system)
    return RunRecord(
        arm=run.arm, set_key=run.set_key, system_id=run.system_id,
        status="ok", attempts=attempts, metrics=metrics, payload=payload,
    )


def sweep(campaign: str, runs: list[CampaignRun], policy: RunPolicy | None,
          workers: int) -> list[RunRecord]:
    """Every run's record, in run order.

    A run already in the policy's checkpoint keeps its record; the rest
    go through :func:`guarded`, over a ``workers``-process pool when
    ``workers > 1``.  Records come back in submission order, so a
    parallel sweep is bit-identical to a sequential one, and this parent
    process alone appends them to the checkpoint (workers run with
    ``checkpoint_path=None``), each line tagged with ``campaign``, the
    name of the campaign: ``paper``, ``overload``, ``multicore`` or
    ``multicore-overload``.
    """
    log, done = _open_checkpoint(
        policy.checkpoint_path if policy is not None else None, campaign
    )
    worker_policy = (
        _replace(policy, checkpoint_path=None) if policy is not None
        else None
    )
    fresh = iter(_parallel_map(
        partial(guarded, policy=worker_policy),
        [run for run in runs if run.key not in done], workers,
    ))
    records = []
    for run in runs:
        record = done.get(run.key)
        if record is None:
            record = next(fresh)
            if log is not None:
                log.append({**record.to_dict(), "campaign": campaign})
        records.append(record)
    return records


def _paper_run(overhead, enforcement, verify, arm, system):
    return _run_arm(arm, system, overhead, enforcement, verify), None


def _paper_system(params: GenerationParameters, fault_plan, seed: int,
                  system_id: int) -> GeneratedSystem:
    """System ``system_id`` of ``params`` generated from master seed
    ``seed``, with ``fault_plan`` (if any) applied."""
    system = RandomSystemGenerator(_replace(params, seed=seed)).generate()[
        system_id
    ]
    return fault_plan.apply(system) if fault_plan is not None else system


def run_campaign(
    sets: tuple[GenerationParameters, ...] = PAPER_SETS,
    overhead: OverheadModel | None = None,
    arms: tuple[str, ...] = ARMS,
    fault_plan: "FaultPlan | None" = None,
    enforcement: "EnforcementConfig | None" = None,
    run_policy: RunPolicy | None = None,
    workers: int = 1,
    verify: bool = False,
) -> CampaignResult:
    """Run the full evaluation; returns per-arm tables keyed like the
    paper's ``(density, std)`` columns.

    ``fault_plan`` injects workload faults (both arms still consume
    byte-identical — faulted — inputs); ``enforcement`` applies a
    cost-overrun policy in every arm; ``run_policy`` hardens the sweep:
    crashed, hung or timed-out runs become structured failure records in
    ``CampaignResult.records`` instead of exceptions, with optional
    bounded retry and JSONL checkpointing for resume.  ``workers > 1``
    fans the (arm, system) runs out over a ``multiprocessing`` pool —
    every run is still generated from the same master-seed fan-out and
    results are folded back in sequential order, so tables and records
    are bit-identical to a one-worker sweep; checkpoint lines are
    written (flushed + fsynced) by this parent process only.  Everything
    defaults to the paper-faithful golden path.  An arm not in
    :data:`ARMS` raises ``ValueError``.
    """
    _check_arms(arms)
    execute = partial(_paper_run, overhead, enforcement, verify)
    runs: list[CampaignRun] = []
    for params in sets:
        systems = RandomSystemGenerator(params).generate()
        if fault_plan is not None:
            systems = fault_plan.apply_all(systems)
        key = (params.task_density, params.std_deviation)
        regenerate = partial(_paper_system, params, fault_plan)
        runs += [
            CampaignRun(arm, key, system.system_id, params.seed, system,
                        execute, regenerate)
            for system in systems for arm in arms
        ]
    records = sweep("paper", runs, run_policy, workers)

    result = CampaignResult(tables={arm: {} for arm in arms})
    if run_policy is not None:
        result.records = records
    per_set: dict[tuple[float, float], dict[str, list[RunMetrics]]] = {}
    for run, record in zip(runs, records):
        if record.metrics is not None:
            per_set.setdefault(run.set_key, {}).setdefault(
                run.arm, []
            ).append(record.metrics)
    for key, per_arm in per_set.items():
        for arm, metrics in per_arm.items():
            result.tables[arm][key] = aggregate(metrics)
    return result


# -- the overload campaign ---------------------------------------------------


@dataclass
class OverloadRun:
    """One system's burst-arm outcome: baseline vs overloaded."""

    arm: str
    set_key: tuple[float, float]
    system_id: int
    baseline: RunMetrics
    metrics: RunMetrics
    report: OverloadReport


@dataclass
class OverloadCampaignResult:
    """Per-run overload reports plus the usual hardening records."""

    runs: list[OverloadRun] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[RunRecord]:
        return [r for r in self.records if r.status != "ok"]

    def summary(self, arm: str) -> dict[str, float]:
        """Mean overload behaviour of one arm across its runs."""
        runs = [r for r in self.runs if r.arm == arm]
        if not runs:
            raise KeyError(f"no runs for arm {arm!r}")
        finite = [
            r.report.recovery_time for r in runs if r.report.recovered
        ]
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return {
            "runs": float(len(runs)),
            "shed_rate": mean([r.report.shed_rate for r in runs]),
            "breaker_opens": float(
                sum(r.report.breaker_opens for r in runs)
            ),
            "time_in_degraded": mean(
                [r.report.time_in_degraded for r in runs]
            ),
            "recovered_fraction": len(finite) / len(runs),
            "mean_recovery_time": mean(finite) if finite else float("inf"),
            "periodic_deadline_misses": float(
                sum(r.report.periodic_deadline_misses for r in runs)
            ),
            "baseline_aart": mean(
                [r.baseline.average_response_time for r in runs]
            ),
            "burst_aart": mean(
                [r.metrics.average_response_time for r in runs]
            ),
        }


def default_overload_config() -> "OverloadConfig":
    """The campaign's standard overload stack: a drop-oldest queue bound,
    per-source breakers and a degraded-mode detector."""
    from ..overload import (
        BreakerConfig,
        DetectorConfig,
        OverloadConfig,
        QueueBound,
    )

    return OverloadConfig(
        queue_bound=QueueBound(max_items=6, policy="drop-oldest"),
        breaker=BreakerConfig(),
        detector=DetectorConfig(),
    )


def _run_overload_arm(
    arm: str,
    system: GeneratedSystem,
    overhead: OverheadModel | None,
    overload: "OverloadConfig | None",
) -> SystemResult:
    policy = "polling" if arm.startswith("ps") else "deferrable"
    if arm.endswith("_sim"):
        return simulate_system(system, policy, overload=overload)
    return execute_system(system, policy, overhead, overload=overload)


def _overload_payload(faulted, horizon: float, baseline: RunMetrics) -> dict:
    """A burst run's record payload: its overload report, and the
    unfaulted baseline metrics that calibrated the recovery criterion."""
    report = measure_overload(
        faulted.trace, faulted.jobs, horizon=horizon,
        pre_burst_aart=baseline.average_response_time or None,
    )
    return {"overload": asdict(report), "baseline": baseline.to_dict()}


def _with_burst(regenerate, plan: "FaultPlan", seed: int,
                system_id: int) -> tuple[GeneratedSystem, GeneratedSystem]:
    """An overload run's input: ``regenerate``'s system and its twin
    with the burst ``plan`` applied."""
    clean = regenerate(seed, system_id)
    return clean, plan.apply(clean)


def _overload_result(records: list[RunRecord]) -> OverloadCampaignResult:
    """Both overload campaigns' fold: one :class:`OverloadRun` per
    successful record."""
    result = OverloadCampaignResult(records=records)
    for record in records:
        if record.status == "ok" and record.payload is not None:
            result.runs.append(OverloadRun(
                arm=record.arm,
                set_key=record.set_key,
                system_id=record.system_id,
                baseline=RunMetrics.from_dict(record.payload["baseline"]),
                metrics=record.metrics,
                report=OverloadReport(**record.payload["overload"]),
            ))
    return result


def _overload_run(overhead, overload, arm, systems):
    clean, burst_system = systems
    # the unfaulted baseline calibrates the recovery criterion
    baseline = _run_overload_arm(arm, clean, overhead, None).metrics
    faulted = _run_overload_arm(arm, burst_system, overhead, overload)
    return faulted.metrics, _overload_payload(
        faulted, burst_system.horizon, baseline
    )


def run_overload_campaign(
    sets: tuple[GenerationParameters, ...] = PAPER_SETS,
    arms: tuple[str, ...] = ARMS,
    overhead: OverheadModel | None = None,
    overload: "OverloadConfig | None" = None,
    burst: "EventBurst | None" = None,
    run_policy: RunPolicy | None = None,
    workers: int = 1,
) -> OverloadCampaignResult:
    """The burst-overload sweep: every system runs twice per arm.

    First an unfaulted baseline (golden path, no overload machinery) to
    calibrate pre-burst response times; then the same workload through
    an :class:`~repro.faults.injectors.EventBurst` storm with the
    ``overload`` stack armed.  Each run's trace is distilled into an
    :class:`~repro.overload.metrics.OverloadReport` — shed rate, breaker
    activity, time in degraded mode and post-burst recovery time —
    reported alongside the paper's AART/AIR/ASR.  ``run_policy`` applies
    the usual hardening (timeout, retry, checkpoint/resume,
    ``fail_fast``); a retry regenerates the system and re-applies the
    burst.  Every run is recorded, with ``RunPolicy()`` when none is
    given.  ``workers > 1`` fans runs over a process pool with fold-back
    in sequential order.  An arm not in :data:`ARMS` raises
    ``ValueError``.
    """
    from ..faults.injectors import EventBurst, FaultPlan

    _check_arms(arms)
    if overload is None:
        overload = default_overload_config()
    if burst is None:
        burst = EventBurst(extra=3, probability=0.5, spacing=0.05)
    execute = partial(_overload_run, overhead, overload)
    runs: list[CampaignRun] = []
    for params in sets:
        key = (params.task_density, params.std_deviation)
        plan = FaultPlan(injectors=(burst,), seed=params.seed)
        regenerate = partial(
            _with_burst, partial(_paper_system, params, None), plan
        )
        for system in RandomSystemGenerator(params).generate():
            systems = (system, plan.apply(system))
            runs += [
                CampaignRun(arm, key, system.system_id, params.seed,
                            systems, execute, regenerate)
                for arm in arms
            ]
    return _overload_result(
        sweep("overload", runs, run_policy or RunPolicy(), workers)
    )

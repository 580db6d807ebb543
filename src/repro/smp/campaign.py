"""The multicore evaluation campaign: workload -> placement -> engine.

Runs a generated workload (periodic tasks with total utilization up to
*m*, plus a Poisson aperiodic stream) under the four multicore arms:

* ``part-ff`` / ``part-wf`` / ``part-bf`` — partitioned scheduling: the
  periodic set is bin-packed onto the cores (first-/worst-/best-fit
  decreasing utilization) and every core runs preemptive fixed priority
  with its *own* Polling or Deferrable server instance; aperiodic events
  are routed round-robin across the per-core servers;
* ``global-fp`` / ``global-edf`` — global scheduling: one logical queue,
  the top-*m* entities run, a single (migratable) server serves the
  aperiodic stream, and migrations are counted as first-class trace
  events.

Every arm consumes the *same* :class:`~repro.workload.spec.GeneratedSystem`
descriptor, so fault plans (:mod:`repro.faults`) apply to the workload
before placement — a targeted fault perturbs the same tasks and events
regardless of which core they end up on.  Campaign hardening (per-run
timeout, bounded retry, JSONL checkpoint/resume) and the worker pool are
shared with the uniprocessor campaign executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as _replace
from functools import partial
from typing import TYPE_CHECKING

from ..overload import wire_sim_servers
from ..sim import (
    AperiodicJob,
    IdealDeferrableServer,
    IdealPollingServer,
)
from ..sim.engine import EPS
from ..sim.trace import ExecutionTrace
from ..workload.rng import PortableRandom
from ..workload.spec import (
    AperiodicEventSpec,
    GeneratedSystem,
    PeriodicTaskSpec,
    ServerSpec,
)
from ..workload.uunifast import generate_multicore_taskset
from .engine import MulticoreSimulation
from .metrics import (
    MulticoreRunMetrics,
    measure_multicore_run,
    multicore_metrics_from_dict,
    multicore_metrics_to_dict,
)
from .partition import Partition, partition_tasks
from .policies import (
    AperiodicRouter,
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    PartitionedPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.enforcement import EnforcementConfig
    from ..faults.injectors import EventBurst, FaultPlan
    from ..overload.config import OverloadConfig
    from ..experiments.campaign import RunPolicy
    from ..verify.violations import VerificationReport

__all__ = [
    "MULTICORE_MODES",
    "MulticoreParameters",
    "MulticoreSystemResult",
    "MulticoreCampaignResult",
    "build_multicore_system",
    "run_multicore_system",
    "run_multicore_campaign",
    "run_multicore_overload_campaign",
]

#: the four standard arms (plus best-fit) of the multicore evaluation
MULTICORE_MODES = ("part-ff", "part-wf", "part-bf", "global-fp", "global-edf")

_HEURISTIC_OF_MODE = {"part-ff": "ff", "part-wf": "wf", "part-bf": "bf"}


@dataclass(frozen=True)
class MulticoreParameters:
    """Knobs of the multicore campaign generator.

    The periodic side is a UUniFast-Discard task set with total
    utilization ``total_utilization`` (may exceed 1; must not exceed
    ``n_cores`` minus the per-core server share in partitioned modes);
    the aperiodic side is the paper's Poisson/Gaussian stream, served by
    per-core (partitioned) or migratable (global) servers of
    ``server_capacity`` per ``server_period``.
    """

    n_cores: int = 4
    n_tasks: int = 12
    total_utilization: float = 2.0
    task_density: float = 2.0
    average_cost: float = 1.0
    std_deviation: float = 0.5
    server_capacity: float = 2.0
    server_period: float = 10.0
    nb_systems: int = 1
    seed: int = 1983
    horizon_periods: int = 10
    period_range: tuple[float, float] = (10.0, 100.0)
    min_cost: float = 0.1

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_tasks <= 0:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.total_utilization <= 0:
            raise ValueError(
                f"total_utilization must be > 0, got {self.total_utilization}"
            )
        if self.nb_systems <= 0:
            raise ValueError(f"nb_systems must be >= 1, got {self.nb_systems}")
        if self.server_capacity > self.server_period:
            raise ValueError("server capacity exceeds its period")

    @property
    def horizon(self) -> float:
        return self.horizon_periods * self.server_period

    @property
    def server_utilization(self) -> float:
        return self.server_capacity / self.server_period


@dataclass
class MulticoreSystemResult:
    """One system's outcome under one multicore arm."""

    mode: str
    metrics: MulticoreRunMetrics
    trace: ExecutionTrace
    partition: Partition | None = None
    #: the run's aperiodic job records (overload reports read these)
    jobs: list[AperiodicJob] = field(default_factory=list)
    #: verification outcome when the run was verified (``verify=True``)
    report: "VerificationReport | None" = None


@dataclass
class MulticoreCampaignResult:
    """``tables[mode]`` -> per-system metrics, plus hardening records."""

    tables: dict[str, list[MulticoreRunMetrics]] = field(default_factory=dict)
    records: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [r for r in self.records if r.status != "ok"]


# -- workload ---------------------------------------------------------------


def build_multicore_system(params: MulticoreParameters,
                           system_id: int = 0) -> GeneratedSystem:
    """Generate one multicore system (periodic set + aperiodic stream).

    Deterministic in ``(params, system_id)``; every arm of the campaign
    consumes the descriptor returned here, so placements are compared on
    byte-identical workloads.
    """
    mix = (params.seed << 4) ^ (system_id * 0x9E3779B9) ^ 0x5BD1
    task_seed = mix & 0x7FFFFFFFFFFFFFFF
    tasks = generate_multicore_taskset(
        seed=task_seed,
        n=params.n_tasks,
        total_utilization=params.total_utilization,
        period_range=params.period_range,
    )
    rng = PortableRandom(task_seed ^ 0x0A5E)
    horizon = params.horizon
    mean_interarrival = params.server_period / params.task_density
    events: list[AperiodicEventSpec] = []
    t = rng.exponential(mean_interarrival)
    eid = 0
    while t < horizon:
        cost = rng.gauss(params.average_cost, params.std_deviation)
        if cost < params.min_cost:
            cost = params.min_cost
        events.append(
            AperiodicEventSpec(event_id=eid, release=t, declared_cost=cost)
        )
        eid += 1
        t += rng.exponential(mean_interarrival)
    return GeneratedSystem(
        system_id=system_id,
        server=ServerSpec(
            capacity=params.server_capacity,
            period=params.server_period,
            priority=0,
        ),
        events=tuple(events),
        horizon=horizon,
        periodic_tasks=tuple(tasks),
    )


# -- single runs ------------------------------------------------------------

_SERVER_CLASSES = {
    "polling": IdealPollingServer,
    "deferrable": IdealDeferrableServer,
}


class _GlobalPollingServer(IdealPollingServer):
    """Polling server rankable under global EDF: its deadline is the end
    of the current server period (when unspent capacity is forfeit)."""

    def current_deadline(self, now: float) -> float:
        period = self.spec.period
        return (math.floor(now / period + EPS) + 1) * period


class _GlobalDeferrableServer(IdealDeferrableServer):
    """Deferrable server rankable under global EDF (same deadline rule)."""

    def current_deadline(self, now: float) -> float:
        period = self.spec.period
        return (math.floor(now / period + EPS) + 1) * period


_GLOBAL_SERVER_CLASSES = {
    "polling": _GlobalPollingServer,
    "deferrable": _GlobalDeferrableServer,
}


def _check_modes(modes: tuple[str, ...]) -> None:
    for mode in modes:
        if mode not in MULTICORE_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {MULTICORE_MODES}"
            )


def run_multicore_system(
    system: GeneratedSystem,
    n_cores: int,
    mode: str,
    server: str | None = "polling",
    enforcement: "EnforcementConfig | None" = None,
    overload: "OverloadConfig | None" = None,
    verify: bool = False,
    kernel: str = "auto",
) -> MulticoreSystemResult:
    """Run one generated system under one multicore arm.

    ``server`` selects the per-core (partitioned) or migratable (global)
    aperiodic server family — ``"polling"``, ``"deferrable"`` or ``None``
    to drop the aperiodic stream entirely (pure periodic scheduling).
    ``overload`` wires the full overload stack (queue bounds, per-server
    circuit breakers, the degraded-mode detector and, in partitioned
    modes, overload-aware routing); ``None`` keeps the golden path
    byte-identical.  ``verify=True`` sweeps the finished trace with the
    runtime-verification monitor battery (:mod:`repro.verify`) — per-core
    non-overlap, ordering legality scoped by the placement, server
    capacity conservation — and stores the outcome on the result's
    ``report``.
    ``kernel`` selects the lazy release-scheduling path or the eager
    reference one (see docs/performance.md); both are byte-identical.
    """
    _check_modes((mode,))
    if server is not None and server not in _SERVER_CLASSES:
        raise ValueError(
            f"unknown server {server!r}; choose 'polling', 'deferrable' "
            "or None"
        )
    tasks = list(system.periodic_tasks)
    partition = core_of = None
    if mode in _HEURISTIC_OF_MODE:
        reserve = (
            system.server.capacity / system.server.period
            if server is not None else 0.0
        )
        partition = partition_tasks(
            tasks, n_cores, heuristic=_HEURISTIC_OF_MODE[mode],
            capacity=1.0, reserve=reserve,
        )
        # one server per core
        names = [f"{server or 'srv'}{k}".upper() for k in range(n_cores)]
        core_of = dict(partition.core_of)
        for k, name in enumerate(names):
            core_of[name] = k
        policy = PartitionedPolicy(core_of, n_cores)
        server_classes, capacity = _SERVER_CLASSES, system.server.capacity
    else:
        policy = (
            GlobalFixedPriorityPolicy() if mode == "global-fp"
            else GlobalEDFPolicy()
        )
        # one migratable server; global modes pool the per-core bandwidth
        names = [(server or "srv").upper()]
        server_classes = _GLOBAL_SERVER_CLASSES
        capacity = min(system.server.capacity * n_cores, system.server.period)
    servers = []
    if server is not None:
        spec = ServerSpec(
            capacity=capacity,
            period=system.server.period,
            # highest on its core, the paper's invariant
            priority=max((t.priority for t in tasks), default=0) + 1,
        )
        servers = [
            server_classes[server](spec, name=name, enforcement=enforcement)
            for name in names
        ]
    sim = MulticoreSimulation(
        policy, n_cores=n_cores, enforcement=enforcement, kernel=kernel,
    )
    for instance in servers:
        instance.attach(sim, horizon=system.horizon)
    for task_spec in tasks:
        sim.add_periodic_task(task_spec)
    detector = wire_sim_servers(overload, sim, servers)
    jobs = _make_jobs(system)
    # each job goes to the global server, the overload-aware router or,
    # round-robin, to the per-core servers
    handlers = [instance.submit for instance in servers]
    core_of_job = None
    if partition is not None and servers:
        if overload is not None and overload.active:
            # overload-aware routing decides at release time, when the
            # breaker and queue state it steers around actually exists
            router = AperiodicRouter(servers, overload)
            core_of_job, handlers = router.core_of_job, [router.route]
        else:
            core_of_job = {
                job.name: i % n_cores for i, job in enumerate(jobs)
            }
    for i, job in enumerate(jobs if handlers else ()):
        sim.submit_aperiodic(job, handlers[i % len(handlers)])
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
            system, servers=tuple(servers),
            policy="edf" if mode == "global-edf" else "fp",
            core_of=core_of,
            check_demand=enforcement is None and overload is None,
        ), system.horizon)
        stamp_violations(trace, report)
    metrics = measure_multicore_run(
        jobs, trace, n_cores, system.horizon, core_of_job=core_of_job,
    )
    return MulticoreSystemResult(
        mode=mode, metrics=metrics, trace=trace, partition=partition,
        jobs=jobs, report=report,
    )


def _make_jobs(system: GeneratedSystem) -> list[AperiodicJob]:
    return [
        AperiodicJob(
            name=f"h{event.event_id}",
            release=event.release,
            cost=event.cost,
            declared_cost=event.declared_cost,
        )
        for event in system.events
    ]


# -- the campaigns ----------------------------------------------------------


def _mc_system(params: MulticoreParameters, fault_plan, seed: int,
               system_id: int) -> GeneratedSystem:
    """System ``system_id`` of ``params`` built from master seed
    ``seed``, with ``fault_plan`` (if any) applied."""
    system = build_multicore_system(_replace(params, seed=seed), system_id)
    return fault_plan.apply(system) if fault_plan is not None else system


def _mc_run(n_cores, server, enforcement, verify, mode, system):
    """One (mode, system) run: the aggregate metrics, with the per-core
    metrics as the record's payload."""
    result = run_multicore_system(
        system, n_cores, mode, server=server, enforcement=enforcement,
        verify=verify,
    )
    if result.report is not None and not result.report.ok:
        from ..verify.violations import VerificationError

        raise VerificationError(result.report.summary())
    return result.metrics.aggregate, multicore_metrics_to_dict(result.metrics)


def _mc_overload_run(n_cores, server, overload, mode, systems):
    from ..experiments.campaign import _overload_payload

    clean, burst_system = systems
    # the unfaulted baseline calibrates the recovery criterion
    baseline = run_multicore_system(clean, n_cores, mode, server=server)
    faulted = run_multicore_system(
        burst_system, n_cores, mode, server=server, overload=overload,
    )
    return faulted.metrics.aggregate, _overload_payload(
        faulted, burst_system.horizon, baseline.metrics.aggregate
    )


def _mc_sweep(campaign: str, params: MulticoreParameters,
              modes: tuple[str, ...], execute, regenerate,
              run_policy: "RunPolicy | None", workers: int) -> list:
    """The records of every (system, mode) run of ``params``, in sweep
    order, checkpointed under the name ``campaign``.  Every run is
    recorded, with ``RunPolicy()`` when none is given."""
    from ..experiments.campaign import CampaignRun, RunPolicy, sweep

    _check_modes(modes)
    key = (float(params.n_cores), float(params.total_utilization))
    runs = []
    for system_id in range(params.nb_systems):
        system = regenerate(params.seed, system_id)
        runs += [
            CampaignRun(mode, key, system_id, params.seed, system, execute,
                        regenerate)
            for mode in modes
        ]
    return sweep(campaign, runs, run_policy or RunPolicy(), workers)


def run_multicore_overload_campaign(
    params: MulticoreParameters,
    modes: tuple[str, ...] = MULTICORE_MODES,
    server: str | None = "polling",
    overload: "OverloadConfig | None" = None,
    burst: "EventBurst | None" = None,
    run_policy: "RunPolicy | None" = None,
    workers: int = 1,
):
    """The multicore burst-overload sweep: every system runs twice per arm.

    The multicore twin of
    :func:`repro.experiments.campaign.run_overload_campaign`: an unfaulted
    baseline calibrates pre-burst response times, then the same workload
    runs through an :class:`~repro.faults.injectors.EventBurst` storm with
    the ``overload`` stack armed — per-server queue bounds and breakers,
    the degraded-mode detector, and (partitioned modes) overload-aware
    routing that steers arrivals around open breakers and full queues.
    Like its twin it records every run, and a retry regenerates the
    system and re-applies the burst.
    Returns an :class:`~repro.experiments.campaign.OverloadCampaignResult`.
    """
    from ..experiments.campaign import (
        _overload_result,
        _with_burst,
        default_overload_config,
    )
    from ..faults.injectors import EventBurst, FaultPlan

    if overload is None:
        overload = default_overload_config()
    if burst is None:
        burst = EventBurst(extra=3, probability=0.5, spacing=0.05)
    regenerate = partial(
        _with_burst, partial(_mc_system, params, None),
        FaultPlan(injectors=(burst,), seed=params.seed),
    )
    return _overload_result(_mc_sweep(
        "multicore-overload", params, modes,
        partial(_mc_overload_run, params.n_cores, server, overload),
        regenerate, run_policy, workers,
    ))


def run_multicore_campaign(
    params: MulticoreParameters,
    modes: tuple[str, ...] = MULTICORE_MODES,
    server: str | None = "polling",
    enforcement: "EnforcementConfig | None" = None,
    fault_plan: "FaultPlan | None" = None,
    run_policy: "RunPolicy | None" = None,
    workers: int = 1,
    verify: bool = False,
) -> MulticoreCampaignResult:
    """Run every generated system under every multicore arm.

    Every run is recorded, with ``RunPolicy()`` when none is given.
    ``workers > 1`` fans the (mode, system) runs out over a
    ``multiprocessing`` pool with the master-seed fan-out preserved, so
    results are bit-identical to a sequential sweep; checkpoint lines
    (``run_policy.checkpoint_path``) are written by the parent only,
    flushed and fsynced per record, and an existing checkpoint resumes.
    """
    records = _mc_sweep(
        "multicore", params, modes,
        partial(_mc_run, params.n_cores, server, enforcement, verify),
        partial(_mc_system, params, fault_plan), run_policy, workers,
    )
    result = MulticoreCampaignResult(
        tables={mode: [] for mode in modes}, records=records
    )
    for record in records:
        if record.payload is not None:
            result.tables[record.arm].append(
                multicore_metrics_from_dict(record.payload)
            )
    return result

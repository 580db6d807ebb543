"""The seeded chaos campaign: random systems × faults × overload,
monitors on, failures shrunk to minimal witnesses.

Every run draws a scenario from a deterministic seed stream and executes
it with the full :mod:`repro.verify` battery attached.  Scenario flavors
rotate round-robin so a small budget still covers the whole surface:

========================  ==================================================
flavor                    what runs
========================  ==================================================
``uni-polling``           ideal Polling Server, monitors + all three oracles
``uni-deferrable``        ideal Deferrable Server, monitors + the RTA oracle
``uni-faults``            WCET overruns / release jitter / event bursts
                          (random subset), with or without enforcement
``uni-overload``          event-burst storm with the overload stack
                          (bounded queues, breakers, degraded modes) armed
``mc-part``               partitioned multicore (ff/wf/bf rotation)
``mc-global``             global multicore (fp/edf alternation)
``dover``                 overloaded firm-deadline job set under D-OVER
``differential``          simulator arm vs emulated RTSJ arm, same system
``fabric``                sharded admission fabric under a seeded
                          kill-the-shard drill (failover + restore)
``gateway``               wall-clock gateway soak through the fault proxy,
                          half the time killed and restored from its
                          journal; fates checked against a replay
========================  ==================================================

A failing run is *shrunk*: periodic tasks, then aperiodic events (then
jobs, for D-OVER) are greedily removed while the failure persists, under
a bounded re-run budget, and the minimal reproducing system is kept on
the result as the ``witness``.  The whole campaign is a pure function of
``(seed, n_systems, flavors)``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace as _replace
from typing import Callable

from ..workload.rng import PortableRandom
from ..workload.spec import GeneratedSystem, GenerationParameters
from .invariants import (
    DOverLegalityMonitor,
    MonotoneClockMonitor,
    NonOverlapMonitor,
    run_monitors,
)
from .oracle import admission_oracle, polling_response_oracle, rta_oracle
from .violations import VerificationReport, Violation

__all__ = [
    "CHAOS_FLAVORS",
    "ChaosRunResult",
    "ChaosCampaignResult",
    "run_chaos_campaign",
    "shrink_failure",
]

#: the rotation of scenario flavors (order fixes the seed mapping)
CHAOS_FLAVORS = (
    "uni-polling",
    "uni-deferrable",
    "uni-faults",
    "uni-overload",
    "mc-part",
    "mc-global",
    "dover",
    "differential",
    "fabric",
    "gateway",
)

_UNI_FLAVORS = tuple(f for f in CHAOS_FLAVORS if not f.startswith("mc-"))


@dataclass
class ChaosRunResult:
    """Outcome of one chaos scenario."""

    index: int
    flavor: str
    seed: int
    ok: bool
    violations: tuple[Violation, ...] = ()
    #: infrastructure failure (exception text), distinct from violations
    error: str = ""
    #: shrunken system (or D-OVER job specs) still reproducing the failure
    witness: object = None
    witness_note: str = ""

    @property
    def failed(self) -> bool:
        return not self.ok


@dataclass
class ChaosCampaignResult:
    """All runs of one campaign, with the failure subset pulled out."""

    seed: int
    runs: list[ChaosRunResult] = field(default_factory=list)

    @property
    def failures(self) -> list[ChaosRunResult]:
        return [r for r in self.runs if r.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        by_flavor: dict[str, int] = {}
        for run in self.runs:
            by_flavor[run.flavor] = by_flavor.get(run.flavor, 0) + 1
        lines = [
            f"chaos campaign: {len(self.runs)} run(s), "
            f"{len(self.failures)} failure(s) [master seed {self.seed}]"
        ]
        for flavor in CHAOS_FLAVORS:
            if flavor in by_flavor:
                failed = sum(
                    1 for r in self.runs
                    if r.flavor == flavor and r.failed
                )
                lines.append(
                    f"  {flavor:15s} {by_flavor[flavor]:3d} run(s)"
                    + (f", {failed} FAILED" if failed else "")
                )
        for run in self.failures[:10]:
            head = run.error.strip().splitlines()[-1] if run.error else (
                str(run.violations[0]) if run.violations else "?"
            )
            lines.append(
                f"  FAIL #{run.index} {run.flavor} seed={run.seed}: {head}"
            )
        return "\n".join(lines)


# -- scenario generation ----------------------------------------------------


def _scenario_seed(master: int, index: int) -> int:
    return ((master << 7) ^ (index * 0x9E3779B9) ^ 0x5A17) & 0x7FFFFFFFFFFF


def _random_uni_params(rng: PortableRandom, seed: int) -> GenerationParameters:
    period = rng.uniform(6.0, 14.0)
    return GenerationParameters(
        task_density=rng.uniform(1.0, 8.0),
        average_cost=rng.uniform(0.3, 1.2),
        std_deviation=rng.uniform(0.05, 0.5),
        server_capacity=rng.uniform(1.0, 0.45 * period),
        server_period=period,
        nb_generation=1,
        seed=seed,
        horizon_periods=rng.randint(6, 12),
    )


def _uni_system(rng: PortableRandom, seed: int) -> GeneratedSystem:
    """One random uniprocessor system: the paper's aperiodic stream plus
    a few periodic tasks (so the ordering monitors have work to check)."""
    from ..workload.generator import RandomSystemGenerator
    from ..workload.spec import PeriodicTaskSpec

    system = RandomSystemGenerator(
        _random_uni_params(rng, seed)
    ).generate()[0]
    tasks = []
    for i in range(rng.randint(0, 4)):
        period = rng.uniform(8.0, 40.0)
        utilization = rng.uniform(0.03, 0.15)
        tasks.append(PeriodicTaskSpec(
            name=f"t{i}",
            cost=max(0.05, period * utilization),
            period=period,
            priority=i + 1,
            offset=rng.uniform(0.0, period) if rng.random() < 0.3 else 0.0,
        ))
    return _replace(system, periodic_tasks=tuple(tasks))


def _random_fault_plan(rng: PortableRandom, seed: int):
    from ..faults.injectors import (
        EventBurst,
        FaultPlan,
        ReleaseJitter,
        WcetOverrun,
    )

    pool = [
        WcetOverrun(
            factor=rng.uniform(1.2, 3.0),
            probability=rng.uniform(0.2, 0.9),
            periodic=rng.random() < 0.3,
        ),
        ReleaseJitter(max_jitter=rng.uniform(0.1, 1.0)),
        EventBurst(
            extra=rng.randint(1, 4),
            probability=rng.uniform(0.2, 0.7),
            spacing=rng.uniform(0.02, 0.2),
        ),
    ]
    rng.shuffle(pool)
    picked = tuple(pool[: rng.randint(1, len(pool))])
    return FaultPlan(injectors=picked, seed=seed & 0xFFFF)


def _dover_jobs(rng: PortableRandom):
    """An overloaded firm-deadline job-spec list: (name, release, cost,
    deadline, value) tuples — specs, so shrinking can rebuild jobs."""
    n = rng.randint(6, 18)
    specs = []
    t = 0.0
    for i in range(n):
        t += rng.exponential(0.8)
        cost = max(0.1, rng.gauss(0.8, 0.4))
        slack = rng.uniform(0.05, 2.5)
        value = cost * rng.uniform(0.5, 4.0)
        specs.append((f"j{i}", t, cost, t + cost + slack, value))
    return specs


def _run_dover_check(specs) -> VerificationReport:
    from ..sim.schedulers.dover import DOverScheduler
    from ..sim.task import AperiodicJob

    jobs = [
        AperiodicJob(name=n, release=r, cost=c, deadline=d, value=v)
        for n, r, c, d, v in specs
    ]
    horizon = max(d for _, _, _, d, _ in specs) + 1.0
    result = DOverScheduler(jobs).run(until=horizon)
    monitors = [
        NonOverlapMonitor(),
        MonotoneClockMonitor(),
        DOverLegalityMonitor({n: (r, c, d) for n, r, c, d, _ in specs}),
    ]
    return run_monitors(result.trace, monitors, horizon=horizon)


# -- per-flavor checks ------------------------------------------------------
#
# Each check is ``system -> VerificationReport`` (raises on infrastructure
# failure); the same callable re-runs shrunken candidates, so it must be
# deterministic in the system alone.


def _check_uni(system: GeneratedSystem, policy: str,
               oracles: bool) -> VerificationReport:
    from ..experiments.campaign import simulate_system

    result = simulate_system(system, policy, verify=True)
    report = result.report
    assert report is not None
    if oracles and policy == "polling":
        polling_response_oracle(system, result.trace, report=report)
        admission_oracle(system, result.trace, report=report)
    if oracles:
        rta_oracle(system, result.trace, policy=policy, report=report)
    return report


def _check_uni_faulted(system: GeneratedSystem, policy: str, plan,
                       enforcement) -> VerificationReport:
    from ..experiments.campaign import simulate_system

    faulted = plan.apply(system)
    result = simulate_system(
        faulted, policy, enforcement=enforcement, verify=True
    )
    assert result.report is not None
    return result.report


def _check_uni_overload(system: GeneratedSystem, policy: str,
                        plan) -> VerificationReport:
    from ..experiments.campaign import default_overload_config, simulate_system

    burst = plan.apply(system)
    result = simulate_system(
        burst, policy, overload=default_overload_config(), verify=True
    )
    assert result.report is not None
    return result.report


def _check_multicore(system: GeneratedSystem, n_cores: int, mode: str,
                     server: str | None) -> VerificationReport:
    from ..smp.campaign import run_multicore_system

    result = run_multicore_system(
        system, n_cores, mode, server=server, verify=True
    )
    assert result.report is not None
    return result.report


def _check_differential(system: GeneratedSystem,
                        policy: str) -> VerificationReport:
    from .differential import differential_check

    return differential_check(system, policy)


def _mc_system(rng: PortableRandom, seed: int, n_cores: int,
               partitioned: bool) -> GeneratedSystem:
    """A multicore system that the partitioner can actually place.

    Bin-packing rejects task sets with a near-1 utilization task once the
    server reserve is subtracted; redraws with a lower utilization target
    keep the campaign deterministic without dead runs.
    """
    from ..smp.campaign import MulticoreParameters, build_multicore_system
    from ..smp.partition import PartitionError, partition_tasks

    utilization = rng.uniform(0.8, 0.45 * n_cores)
    for attempt in range(8):
        params = MulticoreParameters(
            n_cores=n_cores,
            n_tasks=rng.randint(4, 3 * n_cores),
            total_utilization=utilization,
            task_density=rng.uniform(1.0, 5.0),
            average_cost=rng.uniform(0.4, 1.2),
            std_deviation=rng.uniform(0.1, 0.5),
            server_capacity=2.0,
            server_period=10.0,
            nb_systems=1,
            seed=(seed + attempt * 7919) & 0x7FFFFFFF,
            horizon_periods=rng.randint(5, 9),
        )
        system = build_multicore_system(params, 0)
        if not partitioned:
            return system
        try:
            partition_tasks(
                list(system.periodic_tasks), n_cores, heuristic="ff",
                capacity=1.0, reserve=0.2,
            )
        except PartitionError:
            utilization = max(0.5, utilization * 0.8)
            continue
        return system
    return system


# -- shrinking --------------------------------------------------------------


def shrink_failure(
    system: GeneratedSystem,
    check: Callable[[GeneratedSystem], VerificationReport],
    budget: int = 40,
) -> tuple[GeneratedSystem, int]:
    """Greedily minimise a failing system while ``check`` still fails.

    One pass drops periodic tasks, then aperiodic events, keeping each
    removal that preserves the failure; passes repeat until a fixpoint or
    the re-run ``budget`` is exhausted.  A candidate that raises (e.g. an
    unpartitionable reduced set) is treated as not reproducing.  Returns
    the smallest failing system found and the number of re-runs spent.
    """
    def still_fails(candidate: GeneratedSystem) -> bool:
        try:
            return not check(candidate).ok
        except Exception:
            return False

    current = system
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for kind in ("task", "event"):
            items = (
                current.periodic_tasks if kind == "task" else current.events
            )
            i = 0
            while i < len(items) and spent < budget:
                reduced = items[:i] + items[i + 1:]
                candidate = (
                    _replace(current, periodic_tasks=reduced)
                    if kind == "task"
                    else _replace(current, events=reduced)
                )
                spent += 1
                if still_fails(candidate):
                    current = candidate
                    items = reduced
                    improved = True
                else:
                    i += 1
    return current, spent


def _shrink_dover(specs, budget: int = 40):
    """Drop D-OVER job specs while the legality check still fails."""
    def still_fails(candidate) -> bool:
        if not candidate:
            return False
        try:
            return not _run_dover_check(candidate).ok
        except Exception:
            return False

    current = list(specs)
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        i = 0
        while i < len(current) and spent < budget:
            candidate = current[:i] + current[i + 1:]
            spent += 1
            if still_fails(candidate):
                current = candidate
                improved = True
            else:
                i += 1
    return current, spent


def _run_fabric_drill(index: int, flavor: str, seed: int,
                      rng: PortableRandom) -> ChaosRunResult:
    """One seeded kill-the-shard drill through the fabric storm harness.

    A small supervised fabric (2-3 shards) takes a Poisson front while
    one randomly chosen shard is crashed mid-run — half the time with a
    torn checkpoint tail — then restored from its write-ahead log.  The
    run fails if the merged-trace monitor reports anything, any id is
    double-admitted through failover, or a hard deadline is missed
    without an explicit SHED.
    """
    import tempfile
    import warnings
    from pathlib import Path

    from ..fabric import FabricStormConfig, ShardKill, run_fabric_storm

    shards = rng.randint(2, 3)
    config = FabricStormConfig(
        rate=rng.uniform(0.3, 0.7),
        horizon=80.0,
        settle=40.0,
        burst=(30.0, 50.0, 3.0),
        seed=seed & 0xFFFFFF,
        sources=shards * 2,
        shards=shards,
        kills=(ShardKill(
            at=rng.uniform(20.0, 45.0),
            shard=rng.randint(0, shards - 1),
            corrupt_tail=rng.random() < 0.5,
        ),),
        duplicate_fraction=rng.uniform(0.0, 0.4),
    )
    try:
        with tempfile.TemporaryDirectory() as tmp:
            with warnings.catch_warnings():
                # torn-tail restore warnings are the drill, not a bug
                warnings.simplefilter("ignore")
                report = run_fabric_storm(config, checkpoint_dir=Path(tmp))
    except Exception:
        return ChaosRunResult(
            index, flavor, seed, ok=False,
            error=traceback.format_exc(limit=8), witness=config,
        )
    if report.clean:
        return ChaosRunResult(index, flavor, seed, ok=True)
    violations = [
        Violation(kind="fabric-protocol", time=report.horizon, detail=text)
        for text in report.violations
    ]
    if report.double_admitted:
        violations.append(Violation(
            kind="fabric-double-admission", time=report.horizon,
            entities=tuple(report.double_admitted),
        ))
    if report.hard_misses:
        violations.append(Violation(
            kind="fabric-hard-miss", time=report.horizon,
            detail=f"{report.hard_misses} unshed hard deadline miss(es)",
        ))
    return ChaosRunResult(
        index, flavor, seed, ok=False,
        violations=tuple(violations), witness=config,
        witness_note=(
            f"{config.shards} shard(s), kill at "
            f"t={config.kills[0].at:.1f}"
        ),
    )


def _run_gateway_drill(index: int, flavor: str, seed: int,
                       rng: PortableRandom) -> ChaosRunResult:
    """One seeded wall-clock soak through the gateway's fault proxy.

    A real Unix-socket gateway takes a Poisson front through the
    :class:`~repro.gateway.NetworkFaultProxy` (resets, torn writes,
    duplicates, reorders, latency), half the time with a mid-run
    kill + journal restore.  The run fails if the protocol monitors,
    fed online over the merged timeline, report anything, any client
    gives up, or any request's terminal fate differs from the
    ``VirtualClock`` control replay.
    """
    import tempfile
    from pathlib import Path

    from ..gateway import (
        GatewaySoakConfig,
        ProxyFaultPlan,
        run_gateway_soak,
    )

    config = GatewaySoakConfig(
        requests=rng.randint(50, 90),
        rate=rng.uniform(2.0, 6.0),
        seed=seed & 0xFFFFFF,
        sources=rng.randint(2, 4),
        cost_range=(0.1, rng.uniform(0.3, 0.7)),
        deadline_factor=rng.uniform(8.0, 40.0),
        kill_at=rng.uniform(5.0, 12.0) if rng.random() < 0.5 else None,
        proxy=ProxyFaultPlan(
            latency_s=0.001,
            jitter_s=rng.uniform(0.0, 0.003),
            reset_probability=rng.uniform(0.0, 0.04),
            torn_frame_probability=rng.uniform(0.0, 0.03),
            duplicate_probability=rng.uniform(0.0, 0.06),
            reorder_probability=rng.uniform(0.0, 0.04),
        ),
    )
    try:
        with tempfile.TemporaryDirectory() as tmp:
            report = run_gateway_soak(config, Path(tmp))
    except Exception:
        return ChaosRunResult(
            index, flavor, seed, ok=False,
            error=traceback.format_exc(limit=8), witness=config,
        )
    if report.clean:
        return ChaosRunResult(index, flavor, seed, ok=True)
    violations = list(report.violations)
    for rid, wall, control in report.fate_mismatches:
        violations.append(Violation(
            kind="gateway-fate-divergence", time=0.0, entities=(rid,),
            detail=f"wall run {wall} vs control replay {control}",
        ))
    if report.lost:
        violations.append(Violation(
            kind="gateway-request-lost", time=0.0,
            detail=f"{report.lost} request(s) exhausted client retries",
        ))
    return ChaosRunResult(
        index, flavor, seed, ok=False,
        violations=tuple(violations), witness=config,
        witness_note=(
            f"{config.requests} request(s)"
            + (f", kill at t={config.kill_at:.1f}"
               if config.kill_at is not None else "")
        ),
    )


# -- the campaign -----------------------------------------------------------


def _run_scenario(index: int, flavor: str, seed: int,
                  shrink: bool, shrink_budget: int) -> ChaosRunResult:
    rng = PortableRandom(seed)

    if flavor == "fabric":
        return _run_fabric_drill(index, flavor, seed, rng)

    if flavor == "gateway":
        return _run_gateway_drill(index, flavor, seed, rng)

    if flavor == "dover":
        specs = _dover_jobs(rng)
        report = _run_dover_check(specs)
        if report.ok:
            return ChaosRunResult(index, flavor, seed, ok=True)
        witness, note = specs, ""
        if shrink:
            witness, spent = _shrink_dover(specs, budget=shrink_budget)
            note = (
                f"shrunk {len(specs)} -> {len(witness)} job(s) "
                f"in {spent} re-run(s)"
            )
        return ChaosRunResult(
            index, flavor, seed, ok=False,
            violations=tuple(report.violations),
            witness=witness, witness_note=note,
        )

    if flavor == "uni-polling":
        system = _uni_system(rng, seed)
        check = lambda s: _check_uni(  # noqa: E731
            s, "polling", oracles=True
        )
    elif flavor == "uni-deferrable":
        system = _uni_system(rng, seed)
        check = lambda s: _check_uni(  # noqa: E731
            s, "deferrable", oracles=True
        )
    elif flavor == "uni-faults":
        system = _uni_system(rng, seed)
        plan = _random_fault_plan(rng, seed)
        enforcement = None
        if rng.random() < 0.5:
            from ..faults.enforcement import EnforcementConfig

            enforcement = EnforcementConfig()
        policy = "polling" if rng.random() < 0.5 else "deferrable"
        check = lambda s: _check_uni_faulted(  # noqa: E731
            s, policy, plan, enforcement
        )
    elif flavor == "uni-overload":
        from ..faults.injectors import EventBurst, FaultPlan

        system = _uni_system(rng, seed)
        plan = FaultPlan(
            injectors=(EventBurst(
                extra=rng.randint(2, 5),
                probability=rng.uniform(0.4, 0.8),
                spacing=0.05,
            ),),
            seed=seed & 0xFFFF,
        )
        policy = "polling" if rng.random() < 0.5 else "deferrable"
        check = lambda s: _check_uni_overload(  # noqa: E731
            s, policy, plan
        )
    elif flavor == "mc-part":
        n_cores = rng.randint(2, 4)
        mode = ("part-ff", "part-wf", "part-bf")[index % 3]
        server = ("polling", "deferrable", None)[rng.randint(0, 2)]
        system = _mc_system(rng, seed, n_cores, partitioned=True)
        check = lambda s: _check_multicore(  # noqa: E731
            s, n_cores, mode, server
        )
    elif flavor == "mc-global":
        n_cores = rng.randint(2, 4)
        mode = "global-fp" if index % 2 == 0 else "global-edf"
        server = ("polling", "deferrable", None)[rng.randint(0, 2)]
        system = _mc_system(rng, seed, n_cores, partitioned=False)
        check = lambda s: _check_multicore(  # noqa: E731
            s, n_cores, mode, server
        )
    elif flavor == "differential":
        system = _uni_system(rng, seed)
        policy = "polling" if rng.random() < 0.5 else "deferrable"
        check = lambda s: _check_differential(s, policy)  # noqa: E731
    else:
        raise ValueError(f"unknown chaos flavor {flavor!r}")

    try:
        report = check(system)
    except Exception:
        return ChaosRunResult(
            index, flavor, seed, ok=False,
            error=traceback.format_exc(limit=8), witness=system,
        )
    if report.ok:
        return ChaosRunResult(index, flavor, seed, ok=True)
    witness: object = system
    note = ""
    if shrink:
        witness, spent = shrink_failure(
            system, check, budget=shrink_budget
        )
        note = (
            f"shrunk to {len(witness.periodic_tasks)} task(s) + "
            f"{len(witness.events)} event(s) in {spent} re-run(s)"
        )
    return ChaosRunResult(
        index, flavor, seed, ok=False,
        violations=tuple(report.violations),
        witness=witness, witness_note=note,
    )


def run_chaos_campaign(
    n_systems: int = 50,
    seed: int = 20260806,
    flavors: tuple[str, ...] = CHAOS_FLAVORS,
    multicore: bool = True,
    shrink: bool = True,
    shrink_budget: int = 40,
    progress: Callable[[ChaosRunResult], None] | None = None,
) -> ChaosCampaignResult:
    """Run ``n_systems`` seeded chaos scenarios and report the failures.

    Deterministic in ``(seed, n_systems, flavors)``: scenario ``i`` draws
    everything (workload shape, fault plan, arm selection) from
    ``PortableRandom(scenario_seed(seed, i))``.  ``multicore=False``
    drops the ``mc-*`` flavors (e.g. for a quick smoke budget);
    ``progress`` is called after every run (CLI reporting hook).
    """
    for flavor in flavors:
        if flavor not in CHAOS_FLAVORS:
            raise ValueError(
                f"unknown flavor {flavor!r}; choose from {CHAOS_FLAVORS}"
            )
    active = tuple(
        f for f in flavors if multicore or not f.startswith("mc-")
    ) or _UNI_FLAVORS
    result = ChaosCampaignResult(seed=seed)
    for index in range(n_systems):
        flavor = active[index % len(active)]
        run = _run_scenario(
            index, flavor, _scenario_seed(seed, index), shrink, shrink_budget
        )
        result.runs.append(run)
        if progress is not None:
            progress(run)
    return result

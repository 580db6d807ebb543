"""Behaviour lock: sha256 digests of the outputs refactors must not move.

Each digest covers the full-precision numbers (``repr`` of every float),
not a rounded rendering, so a refactor that claims "same behaviour" has
to reproduce the paper campaign, a long pure-periodic trace, the
execution arm's VM traces, the Figures 2-4 text, a multicore campaign
and the multicore kernel's traces, every run record of the four
campaigns and the Section 7 admission path (a skewed service storm and a
fabric kill drill) bit for bit.  A
deliberate behaviour change updates the pinned digest in its own commit,
with the reason.

The two admission-path digests run on the ``VirtualClock`` scheduler.
They read the same whether executors are asyncio tasks that ``advance``
settles for 1, 2, 3, 4 or 32 event-loop rounds after each wakeup, or
synchronous timer actions (measured): they guard the fates, not the
mechanism.  ``tests/test_admission_fates_lock.py`` widens them over
seeds and run kinds; ``tests/test_gateway_clock.py`` guards the
scheduler's ordering rules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.experiments.campaign import (
    ARMS,
    RunPolicy,
    default_overload_config,
    execute_system,
    run_campaign,
    run_overload_campaign,
)
from repro.experiments.figures import render_all_figures
from repro.fabric import FabricStormConfig, ShardKill, run_fabric_storm
from repro.service import StormConfig, run_service_storm
from repro.sim import FixedPriorityPolicy, Simulation
from repro.sim.engine import KERNEL_MODES
from repro.smp.campaign import (
    MULTICORE_MODES,
    MulticoreParameters,
    build_multicore_system,
    run_multicore_campaign,
    run_multicore_overload_campaign,
    run_multicore_system,
)
from repro.smp.metrics import multicore_metrics_to_dict
from repro.workload import PAPER_SETS, RandomSystemGenerator
from repro.workload.spec import PeriodicTaskSpec

PINNED = {
    "paper_campaign":
        "3616bfe65782f0ff4cc656147e4e8e8c7471e5c4d9a415592722de0dd16e5b5c",
    "dyadic_trace":
        "6482dbad50f720699ab9f76fa7c2de07a1cc5df8a75fde3c446b29a5b3e35ccf",
    "figures":
        "922ca678180f4e6dac243963710ba614ca79f0d735b03da979fb9017d67ec1fc",
    "multicore_campaign":
        "5d2e9dd9e1bd70518227c8babecfe6d669e0fbc83e0dfe24f63d83b392ba1183",
    "exec_trace":
        "efcae029ab31272ec88909aa2d322fea117a25c42e5698e5cce7c5d9e49909e0",
    "service_storm":
        "9e22eba77459842ae66fe5180473cc7f5b4c46f65b2817533f8a50885a9278d1",
    "fabric_kill_drill":
        "28835b37fa7fd25e30b1a7c866ef114198011ffdddfd9dd9f0ba64304a85f322",
    "campaign_records":
        "6b5197dbbd48d2290b2066d9755255bb6d119aded8fcb4b661d04b2e96c808e5",
    "multicore_trace":
        "0b6181eaa3eb7aaffd9cee03d9aecd53f4b08c604984269ef1d6d726ef9de87b",
}

# dense dyadic set on the 0.25-tu grid: hyperperiod 16 tu, utilization
# ~0.86; 800 tu is fifty hyperperiods through the lazy release chains
DYADIC_TASKS = (
    ("a", 0.75, 2.0, 0.0),
    ("b", 1.0, 4.0, 0.25),
    ("c", 1.25, 8.0, 0.0),
    ("d", 1.5, 16.0, 1.5),
    ("e", 2.0, 16.0, 0.0),
)
DYADIC_HORIZON = 800.0

# the benchmark's admission_storm skew: twin divergences trigger repairs
STORM_SKEW = dict(drift_ppm=40000.0, overrun_factor=1.6,
                  overrun_probability=0.5)
#: report fields that read the wall clock
STORM_WALL_KEYS = ("admissions_per_sec", "wall_seconds", "replan_latency_s")


def _paper_campaign_digest() -> str:
    """Tables 2-5: every run's counts and mean response time, plus the
    AART/AIR/ASR cells (the fields of perfbench's tables digest)."""
    result = run_campaign()
    digest = hashlib.sha256()
    for arm in ARMS:
        for key, metrics in result.tables[arm].items():
            runs = ";".join(
                f"{r.released},{r.served},{r.interrupted},"
                f"{r.average_response_time!r}" for r in metrics.runs
            )
            digest.update(
                f"{arm} {key} {metrics.aart!r} {metrics.air!r} "
                f"{metrics.asr!r} {runs}\n".encode()
            )
    return digest.hexdigest()


def _trace_digest(trace) -> str:
    digest = hashlib.sha256()
    _update_with_trace(digest, trace)
    return digest.hexdigest()


def _update_with_trace(digest, trace) -> None:
    for e in trace.events:
        digest.update(
            f"E {e.time!r} {e.kind.value} {e.subject} {e.detail}\n".encode()
        )
    for s in trace.segments:
        digest.update(
            f"S {s.start!r} {s.end!r} {s.entity} {s.job} {s.core}\n".encode()
        )


def _dyadic_trace_digests() -> set[str]:
    """One digest per kernel (all must agree)."""
    digests = set()
    for kernel in KERNEL_MODES:
        sim = Simulation(FixedPriorityPolicy(), kernel=kernel)
        for i, (name, cost, period, offset) in enumerate(DYADIC_TASKS):
            sim.add_periodic_task(PeriodicTaskSpec(
                name, cost=cost, period=period, offset=offset,
                priority=10 - i,
            ))
        digests.add(_trace_digest(sim.run(until=DYADIC_HORIZON)))
    return digests


def _exec_trace_digest() -> str:
    """The VM trace and every job's fate for the first two systems of
    each paper set (seed 1983) under PS and DS."""
    digest = hashlib.sha256()
    for params in PAPER_SETS:
        for system in RandomSystemGenerator(params).generate()[:2]:
            for policy in ("polling", "deferrable"):
                result = execute_system(system, policy)
                digest.update(
                    f"# {params.task_density} {params.std_deviation} "
                    f"{system.system_id} {policy}\n".encode()
                )
                _update_with_trace(digest, result.trace)
                for job in result.jobs:
                    digest.update(
                        f"J {job.name} {job.start_time!r} "
                        f"{job.finish_time!r} {job.state.value} "
                        f"{job.interrupted}\n".encode()
                    )
    return digest.hexdigest()


def _multicore_campaign_digest() -> str:
    result = run_multicore_campaign(MulticoreParameters(nb_systems=5))
    digest = hashlib.sha256()
    for mode, runs in result.tables.items():
        for metrics in runs:
            digest.update(mode.encode())
            digest.update(json.dumps(
                multicore_metrics_to_dict(metrics), sort_keys=True
            ).encode())
    return digest.hexdigest()


def _multicore_trace_digests() -> set[str]:
    """Every event and segment of systems 0-1 under each multicore mode,
    with each server family and without one, plus one overloaded run per
    mode; one digest per kernel (all must agree)."""
    params = MulticoreParameters()
    systems = [build_multicore_system(params, i) for i in range(2)]
    overload = default_overload_config()
    runs = [
        (server, None) for server in ("polling", "deferrable", None)
    ] + [("polling", overload)]
    digests = set()
    for kernel in KERNEL_MODES:
        digest = hashlib.sha256()
        for system in systems:
            for mode in MULTICORE_MODES:
                for server, overloaded in runs:
                    result = run_multicore_system(
                        system, params.n_cores, mode, server=server,
                        overload=overloaded, kernel=kernel,
                    )
                    digest.update(
                        f"# {system.system_id} {mode} {server} "
                        f"{overloaded is not None}\n".encode()
                    )
                    _update_with_trace(digest, result.trace)
        digests.add(digest.hexdigest())
    return digests


def _campaign_records_digest() -> str:
    """Every hardened run record (status, attempts, metrics, payload) of
    small runs of the paper, multicore and both overload campaigns."""
    policy = RunPolicy()
    results = (
        run_campaign(
            sets=tuple(replace(p, nb_generation=2) for p in PAPER_SETS[:2]),
            run_policy=policy,
        ),
        run_multicore_campaign(
            MulticoreParameters(nb_systems=3), run_policy=policy
        ),
        run_overload_campaign(
            sets=(replace(PAPER_SETS[0], nb_generation=2),),
            run_policy=policy,
        ),
        run_multicore_overload_campaign(
            MulticoreParameters(n_cores=2, n_tasks=4,
                                total_utilization=0.8, task_density=3.0),
            run_policy=policy,
        ),
    )
    digest = hashlib.sha256()
    for result in results:
        for record in result.records:
            digest.update(
                json.dumps(record.to_dict(), sort_keys=True).encode() + b"\n"
            )
    return digest.hexdigest()


def _report_digest(report, wall_keys) -> str:
    payload = {key: value for key, value in report.to_dict().items()
               if key not in wall_keys}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    _update_with_trace(digest, report.trace)
    return digest.hexdigest()


def _service_storm_digest() -> str:
    """A skewed storm at seed 1983: every fate and count in the report
    (the twin hash included) plus the service's full trace."""
    report = run_service_storm(StormConfig(seed=1983, **STORM_SKEW))
    assert report.clean
    return _report_digest(report, STORM_WALL_KEYS)


def _fabric_kill_drill_digest(checkpoint_dir) -> str:
    """Three shards at seed 2, killed at 30 (torn checkpoint tail) and
    55: the report (state and twin hashes included) plus the merged
    cross-shard trace."""
    report = run_fabric_storm(FabricStormConfig(
        shards=3, seed=2,
        kills=(ShardKill(at=30.0, shard=0, corrupt_tail=True),
               ShardKill(at=55.0, shard=2)),
        rate=0.8, horizon=90.0, settle=40.0, sources=4,
        burst=(25.0, 40.0, 3.0),
    ), checkpoint_dir=checkpoint_dir)
    assert report.clean
    return _report_digest(report, ("wall_seconds",))


def test_behaviour_lock_digests(tmp_path):
    dyadic = _dyadic_trace_digests()
    assert len(dyadic) == 1, "kernels disagree on the trace"
    multicore = _multicore_trace_digests()
    assert len(multicore) == 1, "kernels disagree on the multicore trace"
    observed = {
        "paper_campaign": _paper_campaign_digest(),
        "dyadic_trace": dyadic.pop(),
        "figures": hashlib.sha256(
            render_all_figures().encode()
        ).hexdigest(),
        "multicore_campaign": _multicore_campaign_digest(),
        "exec_trace": _exec_trace_digest(),
        "service_storm": _service_storm_digest(),
        "fabric_kill_drill": _fabric_kill_drill_digest(tmp_path),
        "campaign_records": _campaign_records_digest(),
        "multicore_trace": multicore.pop(),
    }
    assert observed == PINNED

"""Infrastructure benchmarks: simulator kernel and VM throughput.

Not a paper table — these pin the cost of the two substrates so that
regressions in the event kernels are visible: RTSS processing dense and
wide periodic sets over long horizons, the emulated RTSJ VM running
the full Table 1 configuration with events, and the paper pipeline end
to end.

``bench_e2e_paper_campaign`` is the Tables 2-5 pipeline with default
knobs (generation, both arms under both servers, aggregation);
``bench_exec_arms_paper_sets`` and ``bench_sim_arms_paper_sets`` split
it into its execution (VM) and simulation (RTSS) halves over the same
six paper sets.  After its timed rounds the end-to-end bench runs one
more campaign under cProfile and records
``extra_info["calls_per_event_run"]``: primitive calls per aperiodic
event per arm.  The count repeats to two decimals on one CPython minor
version, so its guard is pinned to one.

``bench_e2e_admission_storm`` is the Section 7 admission path end to
end: one skewed service storm on the virtual clock.  Besides its time
it records ``extra_info["loop_turns_per_decision"]``, counted from
outside the program by a selector that tallies its polls (one per
event-loop turn).  The count repeats exactly, so its guard holds on any
host.

``bench_rtss_kernel_dense_periodic_default`` and
``bench_rtss_kernel_wide_taskset_default`` run the default kernel over
dense and wide periodic sets.  The committed medians live in
``benchmarks/BENCH_engine.json``; the ``bench-smoke`` CI job gates the
count guards there (see docs/performance.md).
"""

from __future__ import annotations

import cProfile

from repro.experiments import SCENARIOS, run_scenario_execution
from repro.experiments.campaign import ARMS, run_campaign
from repro.service import StormConfig, run_service_storm
from repro.sim import FixedPriorityPolicy, Simulation, TraceEventKind
from repro.workload import PAPER_SETS, RandomSystemGenerator
from repro.workload.spec import PeriodicTaskSpec

from loop_turns import count_loop_turns

DENSE_TASKS = [(1, 5), (2, 8), (1, 10), (3, 20), (2, 25)]
DENSE_UNTIL = 5000.0
# 40 low-utilisation tasks: stresses ready-set maintenance rather than
# per-slice bookkeeping (the dense set stresses the opposite).
WIDE_TASKS = [(0.2 + (i % 7) * 0.1, 20 + (i * 13) % 60) for i in range(40)]
WIDE_UNTIL = 3000.0
# the perfbench admission_storm op at the paper's master seed: twin
# divergences under timer drift and WCET overruns trigger repairs
STORM = StormConfig(seed=1983, drift_ppm=40000.0, overrun_factor=1.6,
                    overrun_probability=0.5)


def _build(tasks, base_priority):
    sim = Simulation(FixedPriorityPolicy())
    for i, (cost, period) in enumerate(tasks):
        sim.add_periodic_task(
            PeriodicTaskSpec(f"t{i}", cost=cost, period=period,
                             priority=base_priority - i)
        )
    return sim


def bench_rtss_kernel_dense_periodic_default(benchmark):
    def run():
        return _build(DENSE_TASKS, 10).run(until=DENSE_UNTIL)

    trace = benchmark(run)
    assert trace.events_of(TraceEventKind.DEADLINE_MISS) == []


def bench_rtss_kernel_wide_taskset_default(benchmark):
    def run():
        return _build(WIDE_TASKS, 50).run(until=WIDE_UNTIL)

    trace = benchmark(run)
    assert trace.events_of(TraceEventKind.DEADLINE_MISS) == []


def bench_rtsj_vm_scenario_pipeline(benchmark):
    def run():
        return [run_scenario_execution(spec) for spec in SCENARIOS]

    outcomes = benchmark(run)
    assert len(outcomes) == 3


def _calls_per_event_run() -> float:
    """Primitive calls cProfile counts in one ``run_campaign()``, per
    aperiodic event of the paper sets per arm.

    The calls are summed over the profiler's own entries, one per code
    object.  ``pstats`` keys its table by file, line and name, so the
    generated ``__init__`` of every dataclass (all ``<string>:2``)
    collapses into one entry, and which one survives, and so the total,
    moves with memory layout."""
    events = sum(
        len(system.events)
        for params in PAPER_SETS
        for system in RandomSystemGenerator(params).generate()
    )
    profiler = cProfile.Profile()
    profiler.runcall(run_campaign)
    calls = sum(e.callcount - e.reccallcount for e in profiler.getstats())
    return round(calls / (len(ARMS) * events), 2)


def bench_e2e_paper_campaign(benchmark):
    result = benchmark(run_campaign)
    assert all(len(result.table(arm)) == 6 for arm in ARMS)
    benchmark.extra_info["calls_per_event_run"] = _calls_per_event_run()


def bench_exec_arms_paper_sets(benchmark):
    result = benchmark(run_campaign, arms=("ps_exec", "ds_exec"))
    assert len(result.table("ps_exec")) == len(result.table("ds_exec")) == 6


def bench_sim_arms_paper_sets(benchmark):
    result = benchmark(run_campaign, arms=("ps_sim", "ds_sim"))
    assert len(result.table("ps_sim")) == len(result.table("ds_sim")) == 6


def bench_e2e_admission_storm(benchmark):
    report = benchmark(run_service_storm, STORM)
    assert report.clean
    counted, turns = count_loop_turns(lambda: run_service_storm(STORM))
    assert counted.clean
    decisions = sum(counted.decisions.values())
    benchmark.extra_info["loop_turns_per_decision"] = round(
        turns / decisions, 3
    )

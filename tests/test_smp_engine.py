"""The multicore kernel: parallelism, migrations, Dhall, periodicity."""

from __future__ import annotations

import pytest

from repro.sim import FixedPriorityPolicy, Simulation, TraceEventKind
from repro.smp import (
    GlobalEDFPolicy,
    GlobalFixedPriorityPolicy,
    MulticoreSimulation,
    PartitionedPolicy,
    partition_tasks,
)
from repro.workload.spec import PeriodicTaskSpec
from conftest import segments_of


def _labelled(trace) -> list[tuple[float, float, str, int | None]]:
    return sorted(
        (round(s.start, 6), round(s.end, 6), s.entity, s.core)
        for s in trace.segments
    )


def _window(trace, t0: float, t1: float, shift: float = 0.0):
    """(start, end, entity, core) tuples inside [t0, t1), shifted back."""
    return sorted(
        (round(s.start - shift, 6), round(s.end - shift, 6), s.entity,
         s.core)
        for s in trace.segments
        if s.start >= t0 - 1e-9 and s.end <= t1 + 1e-9
    )


class TestParallelExecution:
    def test_two_tasks_run_simultaneously_on_two_cores(self):
        sim = MulticoreSimulation(GlobalFixedPriorityPolicy(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("a", cost=2, period=5,
                                               priority=9))
        sim.add_periodic_task(PeriodicTaskSpec("b", cost=2, period=5,
                                               priority=1))
        trace = sim.run(until=5)
        assert segments_of(trace, "a") == [(0, 2)]
        assert segments_of(trace, "b") == [(0, 2)]
        cores = {s.entity: s.core for s in trace.segments}
        assert sorted(cores.values()) == [0, 1]

    @pytest.mark.parametrize("kernel", ["auto", "reference"])
    @pytest.mark.parametrize("on_deadline_miss", ["continue", "abort"],
                             ids=["soft", "firm"])
    def test_single_core_matches_uniprocessor_kernel(self, on_deadline_miss,
                                                     kernel):
        # utilization 4/3: "lo" misses its deadlines at 6, 12 and 18
        specs = [
            PeriodicTaskSpec("hi", cost=2, period=3, priority=9),
            PeriodicTaskSpec("lo", cost=4, period=6, priority=1),
        ]
        uni = Simulation(FixedPriorityPolicy(),
                         on_deadline_miss=on_deadline_miss, kernel=kernel)
        smp = MulticoreSimulation(GlobalFixedPriorityPolicy(), n_cores=1,
                                  on_deadline_miss=on_deadline_miss,
                                  kernel=kernel)
        for spec in specs:
            uni.add_periodic_task(spec)
            smp.add_periodic_task(spec)
        t_uni = uni.run(until=24)
        t_smp = smp.run(until=24)
        assert [
            (round(s.start, 6), round(s.end, 6), s.entity, s.job)
            for s in t_uni.segments
        ] == [
            (round(s.start, 6), round(s.end, 6), s.entity, s.job)
            for s in t_smp.segments
        ]
        assert [
            (round(e.time, 6), e.kind, e.subject, e.detail)
            for e in t_uni.events
        ] == [
            (round(e.time, 6), e.kind, e.subject, e.detail)
            for e in t_smp.events
        ]
        assert len(t_smp.events_of(TraceEventKind.DEADLINE_MISS)) == 3
        assert len(t_smp.events_of(TraceEventKind.ABORT)) == (
            3 if on_deadline_miss == "abort" else 0
        )
        assert all(s.core == 0 for s in t_smp.segments)
        assert smp.migrations == 0

    def test_per_core_nonoverlap_validated(self):
        sim = MulticoreSimulation(GlobalFixedPriorityPolicy(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("a", cost=3, period=6,
                                               priority=2))
        sim.add_periodic_task(PeriodicTaskSpec("b", cost=3, period=6,
                                               priority=1))
        trace = sim.run(until=12)
        trace.validate()  # would raise on any same-core overlap
        assert trace.cores == [0, 1]


class TestMigration:
    def test_preempted_task_migrates_to_freed_core(self):
        # t=0: H on core 0, L on core 1.  t=1: M releases and preempts L.
        # t=2: H completes and L resumes on core 0 -> one migration 1->0.
        sim = MulticoreSimulation(GlobalFixedPriorityPolicy(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("H", cost=2, period=20,
                                               priority=9))
        sim.add_periodic_task(PeriodicTaskSpec("M", cost=3, period=20,
                                               priority=5, offset=1))
        sim.add_periodic_task(PeriodicTaskSpec("L", cost=3, period=20,
                                               priority=1))
        trace = sim.run(until=10)
        migrations = trace.events_of(TraceEventKind.MIGRATION)
        assert len(migrations) == 1
        assert sim.migrations == 1
        event = migrations[0]
        assert event.time == pytest.approx(2.0)
        assert event.subject.startswith("L")
        assert event.detail == "1->0"
        # the preemption that caused it is also on the trace
        preemptions = trace.events_of(TraceEventKind.PREEMPTION)
        assert any(e.subject.startswith("L") for e in preemptions)

    def test_partitioned_never_migrates(self):
        core_of = {"a": 0, "b": 1, "c": 1}
        sim = MulticoreSimulation(PartitionedPolicy(core_of, 2), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("a", cost=2, period=4,
                                               priority=3))
        sim.add_periodic_task(PeriodicTaskSpec("b", cost=1, period=4,
                                               priority=2))
        sim.add_periodic_task(PeriodicTaskSpec("c", cost=2, period=8,
                                               priority=1))
        trace = sim.run(until=16)
        assert sim.migrations == 0
        assert trace.events_of(TraceEventKind.MIGRATION) == []
        for segment in trace.segments:
            assert segment.core == core_of[segment.entity]


class TestDhallEffect:
    """Dhall's effect: global EDF fails a set partitioning schedules."""

    LIGHT = [
        PeriodicTaskSpec("l1", cost=0.1, period=1.0, priority=1),
        PeriodicTaskSpec("l2", cost=0.1, period=1.0, priority=1),
    ]
    HEAVY = PeriodicTaskSpec("heavy", cost=1.05, period=1.1, priority=1)

    def test_global_edf_misses_heavy_deadline(self):
        sim = MulticoreSimulation(GlobalEDFPolicy(), n_cores=2)
        for spec in [*self.LIGHT, self.HEAVY]:
            sim.add_periodic_task(spec)
        trace = sim.run(until=2.2)
        misses = trace.events_of(TraceEventKind.DEADLINE_MISS)
        assert misses, "global EDF should exhibit the Dhall effect"
        assert all(e.subject.startswith("heavy") for e in misses)

    def test_partitioned_ff_schedules_the_same_set(self):
        specs = [self.HEAVY, *self.LIGHT]
        partition = partition_tasks(specs, n_cores=2, heuristic="ff")
        # the heavy task gets a core of its own
        assert partition.core_of["heavy"] == 0
        assert partition.core_of["l1"] == partition.core_of["l2"] == 1
        sim = MulticoreSimulation(
            PartitionedPolicy(partition.core_of, 2), n_cores=2
        )
        for spec in specs:
            sim.add_periodic_task(spec)
        trace = sim.run(until=2.2)
        assert trace.events_of(TraceEventKind.DEADLINE_MISS) == []


class TestPeriodicity:
    """Grolleau et al.: a deterministic scheduler over a synchronous
    periodic set repeats its schedule every hyperperiod."""

    @pytest.mark.parametrize("policy_cls", [
        GlobalFixedPriorityPolicy, GlobalEDFPolicy,
    ])
    def test_schedule_repeats_with_hyperperiod(self, policy_cls):
        sim = MulticoreSimulation(policy_cls(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("a", cost=1, period=4,
                                               priority=3))
        sim.add_periodic_task(PeriodicTaskSpec("b", cost=2, period=4,
                                               priority=2))
        sim.add_periodic_task(PeriodicTaskSpec("c", cost=2, period=8,
                                               priority=1))
        hyper = 8.0
        trace = sim.run(until=2 * hyper)
        assert trace.events_of(TraceEventKind.DEADLINE_MISS) == []
        first = _window(trace, 0.0, hyper)
        second = _window(trace, hyper, 2 * hyper, shift=hyper)
        assert first == second
        # and every demanded unit was executed in each window
        demand = 2 * (1 + 2) + 2  # two a/b jobs + one c job per window
        assert sum(e - s for s, e, _, _ in first) == pytest.approx(demand)

    @pytest.mark.parametrize("policy_cls", [
        GlobalFixedPriorityPolicy, GlobalEDFPolicy,
    ])
    def test_offset_set_repeats_past_max_offset(self, policy_cls):
        """The asynchronous extension (Grolleau et al.): with release
        offsets the pattern still repeats every hyperperiod, but only
        from the first hyperperiod boundary at or past the largest
        offset — the windows before it hold the transient."""
        sim = MulticoreSimulation(policy_cls(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("a", cost=1, period=4,
                                               priority=3, offset=1.0))
        sim.add_periodic_task(PeriodicTaskSpec("b", cost=2, period=4,
                                               priority=2, offset=0.5))
        sim.add_periodic_task(PeriodicTaskSpec("c", cost=2, period=8,
                                               priority=1))
        hyper = 8.0  # >= max offset, so the pattern locks from t=8
        trace = sim.run(until=4 * hyper)
        second = _window(trace, hyper, 2 * hyper, shift=hyper)
        third = _window(trace, 2 * hyper, 3 * hyper, shift=2 * hyper)
        fourth = _window(trace, 3 * hyper, 4 * hyper, shift=3 * hyper)
        assert second == third == fourth


class TestValidation:
    def test_bad_core_count(self):
        with pytest.raises(ValueError, match="n_cores"):
            MulticoreSimulation(GlobalEDFPolicy(), n_cores=0)

    def test_run_twice_rejected(self):
        sim = MulticoreSimulation(GlobalEDFPolicy(), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("t", cost=1, period=4,
                                               priority=1))
        sim.run(until=4)
        with pytest.raises(RuntimeError, match="once"):
            sim.run(until=4)

    def test_unpinned_entity_rejected_by_partitioned_policy(self):
        sim = MulticoreSimulation(PartitionedPolicy({}, 2), n_cores=2)
        sim.add_periodic_task(PeriodicTaskSpec("ghost", cost=1, period=4,
                                               priority=1))
        with pytest.raises(KeyError, match="ghost"):
            sim.run(until=4)

    def test_bad_pin_rejected(self):
        with pytest.raises(ValueError, match="pinned to core"):
            PartitionedPolicy({"t": 5}, 2)

    def test_policy_core_count_mismatch(self):
        with pytest.raises(ValueError, match="one policy per core"):
            PartitionedPolicy({}, 2, policies=[FixedPriorityPolicy()])

"""The kernel fast path's equivalence contract.

With default knobs (``kernel="auto"``: the fixed-priority ready index
and the lazy periodic-release chain) the emitted trace is *exactly* the
reference kernel's: same segments, same events, same order, same
tie-breaks, uniprocessor and multicore alike.
A patched policy or release hook must be honoured, not inlined away.

The reference kernel (``kernel="reference"``) is the pre-optimization
code path kept verbatim as the oracle.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (
    SCENARIOS,
    TABLE1_SERVER,
    TABLE1_TASKS,
)
from repro.sim.engine import Simulation
from repro.sim.schedulers.edf import EarliestDeadlineFirstPolicy
from repro.sim.schedulers.fp import FixedPriorityPolicy
from repro.sim.task import AperiodicJob, JobState
from repro.sim.trace import TraceEventKind
from repro.workload.rng import PortableRandom
from repro.workload.spec import PeriodicTaskSpec


def trace_key(trace):
    """The full byte-identity key: every field of every record, in order."""
    return (
        [(s.start, s.end, s.entity, s.job, s.core) for s in trace.segments],
        [(e.time, e.kind, e.subject, e.detail) for e in trace.events],
    )


def random_specs(rng, n_tasks, overload=False):
    """A random periodic task set; ``overload`` pushes utilization > 1."""
    specs = []
    if overload:
        n_tasks = max(n_tasks, 2)
    budget = rng.uniform(1.4, 2.2) if overload else rng.uniform(0.5, 0.9)
    share = budget / n_tasks
    for i in range(n_tasks):
        period = rng.uniform(4.0, 30.0)
        cost = min(
            max(0.05, period * share * rng.uniform(0.6, 1.4)),
            period * 0.95,
        )
        specs.append(PeriodicTaskSpec(
            name=f"t{i}",
            cost=cost,
            period=period,
            priority=rng.randint(1, 8),
            offset=rng.uniform(0.0, period) if rng.random() < 0.4 else 0.0,
            deadline=period * rng.uniform(0.7, 1.0)
            if rng.random() < 0.3 else None,
        ))
    return specs


def run_uni(specs, policy, miss, kernel, until):
    sim = Simulation(policy(), on_deadline_miss=miss, kernel=kernel)
    for spec in specs:
        sim.add_periodic_task(spec)
    return sim.run(until)


CASES = [
    (FixedPriorityPolicy, "continue"),
    (FixedPriorityPolicy, "abort"),
    (EarliestDeadlineFirstPolicy, "continue"),
    (EarliestDeadlineFirstPolicy, "abort"),
]


# -- default knobs: byte identity -------------------------------------------


class TestByteIdentityDefaultKnobs:

    def test_chaos_matrix(self):
        rng = PortableRandom(0xFA57)
        for case in range(60):
            policy, miss = CASES[case % len(CASES)]
            specs = random_specs(
                rng, rng.randint(1, 6), overload=case % 5 == 0
            )
            until = rng.uniform(40.0, 160.0)
            ref = run_uni(specs, policy, miss, "reference", until)
            fast = run_uni(specs, policy, miss, "auto", until)
            assert trace_key(fast) == trace_key(ref), (
                f"case {case}: auto diverged from reference"
            )

    @pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
    def test_table1_scenarios(self, spec):
        """The paper's worked scenarios (server + periodic tasks)."""
        from repro.sim.servers.polling import IdealPollingServer

        def run(kernel):
            sim = Simulation(FixedPriorityPolicy(), kernel=kernel)
            server = IdealPollingServer(TABLE1_SERVER, name="PS")
            server.attach(sim, horizon=spec.horizon)
            for task in TABLE1_TASKS:
                sim.add_periodic_task(task)
            for job in (
                AperiodicJob("h1", release=spec.e1_fire, cost=spec.h1_cost),
                AperiodicJob("h2", release=spec.e2_fire, cost=spec.h2_actual),
            ):
                sim.submit_aperiodic(job, server.submit)
            return sim.run(until=spec.horizon)

        assert trace_key(run("auto")) == trace_key(run("reference"))

    def test_golden_segments_still_match(self):
        """A pinned golden trace: the dense two-task preemption pattern."""
        specs = [
            PeriodicTaskSpec(name="hi", cost=1, period=4, priority=9),
            PeriodicTaskSpec(name="lo", cost=3, period=8, priority=1),
        ]
        trace = run_uni(
            specs, FixedPriorityPolicy, "continue", "auto", 16.0
        )
        starts = [
            (s.start, s.end, s.entity) for s in trace.segments
        ]
        assert starts == [
            (0.0, 1.0, "hi"), (1.0, 4.0, "lo"), (4.0, 5.0, "hi"),
            (8.0, 9.0, "hi"), (9.0, 12.0, "lo"), (12.0, 13.0, "hi"),
        ]


# -- multicore and patched hooks: byte identity -----------------------------


class TestSemanticIdentityFastPath:
    """Byte identity against the reference kernel (the class keeps its
    name so the test ids stay stable)."""

    def test_chaos_matrix_multicore(self):
        from repro.smp.campaign import MulticoreParameters, \
            build_multicore_system, run_multicore_system

        rng = PortableRandom(0xD00D)
        for case in range(12):
            n_cores = rng.randint(2, 4)
            params = MulticoreParameters(
                n_cores=n_cores,
                n_tasks=rng.randint(4, 3 * n_cores),
                total_utilization=rng.uniform(0.8, 0.4 * n_cores),
                task_density=rng.uniform(1.0, 5.0),
                average_cost=rng.uniform(0.4, 1.2),
                std_deviation=rng.uniform(0.1, 0.5),
                server_capacity=2.0,
                server_period=10.0,
                nb_systems=1,
                seed=1000 + case,
                horizon_periods=rng.randint(4, 8),
            )
            system = build_multicore_system(params, 0)
            mode = ("part-ff", "global-fp", "global-edf")[case % 3]
            server = ("polling", None)[case % 2]
            try:
                ref = run_multicore_system(
                    system, n_cores, mode, server=server, kernel="reference"
                )
            except Exception:
                continue  # unplaceable set: same failure on either kernel
            auto = run_multicore_system(system, n_cores, mode, server=server)
            assert trace_key(auto.trace) == trace_key(ref.trace), (
                f"case {case} ({mode}): auto diverged from reference"
            )

    def test_patched_policy_disables_index(self, monkeypatch):
        """A replaced select() must be honoured — the kernel detects the
        patch and falls back to the reference scan."""
        def inverted(self, now, ready):
            if not ready:
                return None
            best = ready[0]
            for entity in ready[1:]:
                if entity.priority < best.priority:
                    best = entity
            return best

        monkeypatch.setattr(FixedPriorityPolicy, "select", inverted)
        specs = [
            PeriodicTaskSpec(name="hi", cost=1, period=4, priority=9),
            PeriodicTaskSpec(name="lo", cost=2, period=8, priority=1),
        ]
        ref = run_uni(
            specs, FixedPriorityPolicy, "continue", "reference", 24.0
        )
        auto = run_uni(
            specs, FixedPriorityPolicy, "continue", "auto", 24.0
        )
        assert trace_key(auto) == trace_key(ref)
        # and the inversion is visible (lo runs first despite priority)
        assert ref.segments[0].entity == "lo"

    def test_patched_release_honoured_by_lazy_path(self, monkeypatch):
        """Lazy releases inline delivery; a patched release() (the
        mutation tests' lost-wakeup bug) must still take effect."""
        from repro.sim.engine import PeriodicTaskEntity

        original = PeriodicTaskEntity.release
        dropped = []

        def lossy(self, now, job, sim):
            if job.instance == 1:
                dropped.append(job.name)
                return  # lost wakeup: the job never queues
            original(self, now, job, sim)

        monkeypatch.setattr(PeriodicTaskEntity, "release", lossy)
        specs = [PeriodicTaskSpec(name="t", cost=1, period=5, priority=5)]
        auto = run_uni(
            specs, FixedPriorityPolicy, "continue", "auto", 20.0
        )
        assert dropped == ["t#1"]
        started = {e.subject for e in auto.events_of(TraceEventKind.START)}
        assert "t#1" not in started and "t#0" in started
        dropped.clear()
        ref = run_uni(
            specs, FixedPriorityPolicy, "continue", "reference", 20.0
        )
        assert dropped == ["t#1"]
        assert trace_key(auto) == trace_key(ref)


# -- satellite machinery ------------------------------------------------------


class TestEventQueueBatching:

    def test_same_instant_insertion_keeps_reference_order(self):
        """A due callback that schedules an *earlier-sorting* same-instant
        event: the new event must still run in heap order, exactly as
        one-at-a-time popping would."""
        sim = Simulation(FixedPriorityPolicy())
        fired = []

        def first(now):
            fired.append("first")
            sim.schedule_at(now, lambda t: fired.append("injected"), order=1)

        sim.schedule_at(1.0, first, order=2)
        sim.schedule_at(1.0, lambda t: fired.append("second"), order=3)
        sim.run(until=2.0)
        assert fired == ["first", "injected", "second"]


class TestFirmDeadlineQueue:

    @pytest.mark.parametrize("kernel", ["reference", "auto"])
    def test_backlogged_firm_overload_aborts(self, kernel):
        """A starved firm task backlogs activations; each one must be
        dropped (ABORT event + state) as its deadline expires."""
        sim = Simulation(
            FixedPriorityPolicy(), on_deadline_miss="abort", kernel=kernel
        )
        sim.add_periodic_task(
            PeriodicTaskSpec(name="hog", cost=1.5, period=2, priority=9)
        )
        task = sim.add_periodic_task(
            PeriodicTaskSpec(name="lo", cost=1.5, period=2, priority=1)
        )
        sim.run(until=20.0)
        aborted = [j for j in task.jobs if j.state is JobState.ABORTED]
        assert aborted, "firm overload must abort backlogged jobs"
        abort_events = sim.trace.events_of(TraceEventKind.ABORT)
        assert {e.subject for e in abort_events} >= {
            j.name for j in aborted
        }

    def test_remove_queued_job_mid_queue(self):
        """Indexed removal: dropping a backlogged job from the middle of
        the deque (not just the head)."""
        sim = Simulation(FixedPriorityPolicy())
        task = sim.add_periodic_task(
            PeriodicTaskSpec(name="t", cost=1, period=5, priority=5)
        )
        entity = sim.entities[0]
        jobs = [task.release_job(i) for i in range(3)]
        for job in jobs:
            entity.release(0.0, job, sim)
        assert entity.remove_queued_job(jobs[1], sim) is True
        assert [j.name for j in entity._queue] == ["t#0", "t#2"]
        assert entity.remove_queued_job(jobs[1], sim) is False

    def test_owner_backreference_is_set(self):
        sim = Simulation(FixedPriorityPolicy())
        task = sim.add_periodic_task(
            PeriodicTaskSpec(name="t", cost=1, period=5, priority=5)
        )
        sim.run(until=6.0)
        for job in task.jobs:
            assert job._owner_entity.task is task


class TestKnobValidation:

    def test_bad_kernel_rejected(self):
        for kernel in ("warp", "fast"):
            with pytest.raises(ValueError, match="kernel"):
                Simulation(FixedPriorityPolicy(), kernel=kernel)


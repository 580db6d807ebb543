"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.queues import InstanceBucketQueue, PendingQueue
from repro.core.response_time import ideal_ps_finish_time
from repro.rtsj.time_types import AbsoluteTime, RelativeTime
from repro.sim import (
    AperiodicJob,
    FixedPriorityPolicy,
    IdealDeferrableServer,
    IdealPollingServer,
    JobState,
    Simulation,
)
from repro.workload import GenerationParameters, RandomSystemGenerator
from repro.workload.rng import PortableRandom
from repro.workload.spec import ServerSpec


# ---------------------------------------------------------------- time types

nanos = st.integers(min_value=-10**15, max_value=10**15)


class TestTimeTypeProperties:
    @given(a=nanos, b=nanos)
    def test_relative_addition_commutes(self, a, b):
        x, y = RelativeTime.from_nanos(a), RelativeTime.from_nanos(b)
        assert x.add(y) == y.add(x)

    @given(a=nanos, b=nanos, c=nanos)
    def test_relative_addition_associates(self, a, b, c):
        x, y, z = (RelativeTime.from_nanos(v) for v in (a, b, c))
        assert x.add(y).add(z) == x.add(y.add(z))

    @given(a=nanos, b=nanos)
    def test_absolute_difference_roundtrip(self, a, b):
        p, q = AbsoluteTime.from_nanos(a), AbsoluteTime.from_nanos(b)
        assert q.add(p.subtract(q)) == p

    @given(a=nanos)
    def test_canonical_component_reconstruction(self, a):
        t = RelativeTime.from_nanos(a)
        assert t.milliseconds * 1_000_000 + t.nanoseconds == a
        assert 0 <= t.nanoseconds < 1_000_000

    @given(a=nanos, k=st.integers(min_value=-100, max_value=100))
    def test_scale_matches_repeated_addition(self, a, k):
        t = RelativeTime.from_nanos(a)
        assert t.scale(k).total_nanos == a * k


# ---------------------------------------------------------------- PRNG

class TestRngProperties:
    @given(seed=st.integers())
    def test_stream_restart_identical(self, seed):
        a, b = PortableRandom(seed), PortableRandom(seed)
        assert [a.next_u64() for _ in range(16)] == [
            b.next_u64() for _ in range(16)
        ]

    @given(seed=st.integers(), low=st.integers(-50, 50),
           span=st.integers(0, 100))
    def test_randint_bounds(self, seed, low, span):
        r = PortableRandom(seed)
        high = low + span
        assert all(low <= r.randint(low, high) <= high for _ in range(32))

    @given(seed=st.integers())
    def test_random_unit_interval(self, seed):
        r = PortableRandom(seed)
        assert all(0.0 <= r.random() < 1.0 for _ in range(64))


# ---------------------------------------------------------------- queues

@dataclass
class Item:
    cost_ns: int


costs = st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                 max_size=40)


class TestQueueProperties:
    @given(cs=costs)
    def test_bucket_invariants(self, cs):
        q = InstanceBucketQueue(capacity_ns=40)
        placements = [q.add(Item(c)) for c in cs]
        # every bucket obeys the capacity; offsets are non-decreasing
        offsets = [p.instance_offset for p in placements]
        assert all(b >= a for a, b in zip(offsets, offsets[1:]))
        assert all(p.cumulative_before_ns + c <= 40
                   for p, c in zip(placements, cs))
        # draining preserves insertion order exactly (strict FIFO)
        drained = [q.pop_current().cost_ns for _ in range(len(cs))]
        assert drained == cs
        assert q.empty

    @given(cs=costs, limit=st.integers(min_value=0, max_value=40))
    def test_first_fitting_is_earliest(self, cs, limit):
        q = PendingQueue()
        items = [Item(c) for c in cs]
        for item in items:
            q.add(item)
        chosen = q.choose_first_fitting(limit)
        fitting = [i for i in items if i.cost_ns <= limit]
        assert chosen is (fitting[0] if fitting else None)


# ---------------------------------------------------------------- servers

arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    ),
    min_size=0,
    max_size=12,
)


def run_server(server_cls, arrivals, capacity=4.0, period=6.0,
               horizon=120.0):
    sim = Simulation(FixedPriorityPolicy())
    server = server_cls(ServerSpec(capacity, period, priority=10), name="S")
    server.attach(sim, horizon=horizon)
    jobs = []
    for i, (t, c) in enumerate(sorted(arrivals)):
        job = AperiodicJob(f"j{i}", release=t, cost=c)
        jobs.append(job)
        sim.submit_aperiodic(job, server.submit)
    trace = sim.run(until=horizon)
    return server, jobs, trace


class TestServerProperties:
    @settings(max_examples=40, deadline=None)
    @given(arrivals=arrival_lists)
    def test_polling_invariants(self, arrivals):
        server, jobs, trace = run_server(IdealPollingServer, arrivals)
        self._common_invariants(server, jobs, trace, capacity=4.0, period=6.0)

    @settings(max_examples=40, deadline=None)
    @given(arrivals=arrival_lists)
    def test_deferrable_invariants(self, arrivals):
        server, jobs, trace = run_server(IdealDeferrableServer, arrivals)
        self._common_invariants(server, jobs, trace, capacity=4.0, period=6.0)

    @staticmethod
    def _common_invariants(server, jobs, trace, capacity, period):
        trace.validate()
        assert 0 <= server.capacity <= capacity + 1e-9
        for job in jobs:
            if job.state is JobState.COMPLETED:
                rt = job.response_time
                assert rt is not None and rt >= job.cost - 1e-9
                assert job.start_time is not None
                assert job.start_time >= job.release - 1e-9
        # the server never does more work in any period than its capacity
        k = 0
        while k * period < trace.makespan:
            window_work = sum(
                max(0.0, min(s.end, (k + 1) * period) - max(s.start, k * period))
                for s in trace.segments_of("S")
            )
            assert window_work <= capacity + 1e-6
            k += 1
        # total service never exceeds total demand
        assert trace.busy_time("S") <= sum(j.cost for j in jobs) + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(arrivals=arrival_lists)
    def test_ds_serves_no_fewer_than_ps(self, arrivals):
        ps, ps_jobs, _ = run_server(IdealPollingServer, arrivals)
        ds, ds_jobs, _ = run_server(IdealDeferrableServer, arrivals)
        assert len(ds.completed) >= len(ps.completed)


# ---------------------------------------------------------------- generator

class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        density=st.floats(min_value=0.2, max_value=4.0),
        std=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_generated_systems_well_formed(self, seed, density, std):
        params = GenerationParameters(
            task_density=density, average_cost=3.0, std_deviation=std,
            server_capacity=4.0, server_period=6.0, nb_generation=3,
            seed=seed,
        )
        for system in RandomSystemGenerator(params).generate():
            releases = [e.release for e in system.events]
            assert releases == sorted(releases)
            assert all(0 <= r < system.horizon for r in releases)
            assert all(e.declared_cost >= params.min_cost
                       for e in system.events)


# ---------------------------------------------------------------- equations

class TestEquationProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        w=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        cs_frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    # a denormal residual / capacity underflows to 0 instances
    @example(t=41.0, w=5e-324, cs_frac=0.0)
    def test_finish_time_bounds(self, t, w, cs_frac):
        capacity, period = 4.0, 6.0
        cs = cs_frac * capacity
        finish = ideal_ps_finish_time(t, w, cs, capacity, period)
        # never earlier than doing the work back to back
        assert finish >= t + w - 1e-9
        # never later than one instance per period from scratch
        if w > 0:
            import math

            worst = (math.floor(t / period) + 1 + math.ceil(w / capacity)) \
                * period
            assert finish <= worst + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        w=st.floats(min_value=0.1, max_value=60.0, allow_nan=False),
        extra=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_finish_time_monotone_in_workload(self, t, w, extra):
        capacity, period = 4.0, 6.0
        f1 = ideal_ps_finish_time(t, w, 0.0, capacity, period)
        f2 = ideal_ps_finish_time(t, w + extra, 0.0, capacity, period)
        assert f2 >= f1 - 1e-9

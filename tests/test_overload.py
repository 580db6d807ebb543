"""The overload-management subsystem (repro.overload).

Covers the PR's robustness guarantees:

* bounded pending queues never exceed their bounds, under all three
  shedding policies, in randomized (seeded ``random.Random``) workloads;
* an oversized release offered to a bucket queue is *recorded* as a shed
  (first-class SHED trace event), never a crash or a silent drop;
* circuit breakers trip after K failures in the sliding window, reject
  while open, and re-close through the half-open probe after the source
  quiesces — including under randomized burst injection;
* the overload stack fully disabled is the *identity*: golden-path traces
  are byte-identical with ``overload=None`` and with a disabled
  ``OverloadConfig()``;
* the acceptance scenario: a burst at >= 2x the sustainable aperiodic
  load sheds (with SHED events), trips and re-closes breakers, causes
  zero periodic deadline misses and recovers in finite time;
* the detector's demand estimate is exactly the window's declared cost
  over the window length, summed in arrival order;
* ``TaskServerParameters`` rejects invalid construction with clear
  ``ValueError`` messages;
* ``RunExhausted`` (fail-fast) pickles across process boundaries and the
  runner turns it into exit status 2.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parameters import TaskServerParameters
from repro.core.queues import InstanceBucketQueue, PendingQueue
from repro.experiments.campaign import (
    RunExhausted,
    RunPolicy,
    RunRecord,
    execute_system,
    simulate_system,
)
from repro.overload import (
    SHED_POLICIES,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DetectorConfig,
    OverloadConfig,
    OverloadDetector,
    QueueBound,
    measure_overload,
)
from repro.rtsj.time_types import AbsoluteTime, RelativeTime
from repro.sim.trace import TraceEventKind
from repro.workload.spec import (
    AperiodicEventSpec,
    GeneratedSystem,
    PeriodicTaskSpec,
    ServerSpec,
)


class _Item:
    """A queueable release stand-in with a cost and an optional value."""

    def __init__(self, cost_ns: int, value: float | None = None) -> None:
        self.cost_ns = cost_ns
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Item(cost_ns={self.cost_ns}, value={self.value})"


# ---------------------------------------------------------- bounded queues


@pytest.mark.parametrize("policy", SHED_POLICIES)
def test_pending_queue_never_exceeds_bounds(policy):
    rng = random.Random(20260806)
    for trial in range(30):
        max_items = rng.randint(1, 6)
        max_cost = rng.randint(5, 40)
        queue = PendingQueue(
            max_items=max_items, max_cost_ns=max_cost, policy=policy
        )
        live = []
        for _ in range(rng.randint(5, 60)):
            if live and rng.random() < 0.3:
                victim = rng.choice(live)
                queue.remove(victim)
                live.remove(victim)
            else:
                item = _Item(rng.randint(1, 12), value=rng.random() * 10)
                shed = queue.add(item)
                for gone in shed:
                    if gone in live:
                        live.remove(gone)
                if item not in shed:
                    live.append(item)
            assert len(queue) <= max_items
            assert queue.total_cost_ns <= max_cost
            assert queue.total_cost_ns == sum(i.cost_ns for i in live)


@pytest.mark.parametrize("policy", SHED_POLICIES)
def test_bucket_queue_never_exceeds_bounds(policy):
    rng = random.Random(1983)
    for trial in range(30):
        capacity = rng.randint(8, 20)
        max_items = rng.randint(1, 6)
        max_cost = rng.randint(10, 60)
        queue = InstanceBucketQueue(
            capacity, max_items=max_items, max_cost_ns=max_cost, policy=policy
        )
        for _ in range(rng.randint(5, 50)):
            if len(queue) and rng.random() < 0.25:
                queue.pop_current()
            else:
                item = _Item(rng.randint(1, capacity + 4))
                placement, shed = queue.offer(item)
                if item.cost_ns > capacity:
                    # oversized: rejected, reported, never raises
                    assert placement is None
                    assert shed == [item]
            assert len(queue) <= max_items
            assert queue.total_cost_ns <= max_cost


def test_pending_queue_unbounded_never_sheds():
    queue = PendingQueue()
    items = [_Item(10**9) for _ in range(100)]
    for item in items:
        assert queue.add(item) == []
    assert len(queue) == 100


def test_drop_lowest_value_evicts_lowest_density():
    queue = PendingQueue(max_items=2, policy="drop-lowest-value")
    cheap = _Item(10, value=1.0)   # density 0.1
    dear = _Item(10, value=9.0)    # density 0.9
    queue.add(cheap)
    queue.add(dear)
    incoming = _Item(10, value=5.0)  # density 0.5
    shed = queue.add(incoming)
    assert shed == [cheap]
    assert incoming in list(queue)


def test_drop_lowest_value_sheds_the_arrival_when_it_is_lowest():
    queue = PendingQueue(max_items=2, policy="drop-lowest-value")
    queue.add(_Item(10, value=9.0))
    queue.add(_Item(10, value=8.0))
    incoming = _Item(10, value=0.1)
    shed = queue.add(incoming)
    assert shed == [incoming]
    assert incoming not in list(queue)


def test_bucket_queue_add_still_raises_for_oversized():
    # the historical contract: add() is the trusting path
    queue = InstanceBucketQueue(10)
    with pytest.raises(ValueError):
        queue.add(_Item(11))


def test_bucket_queue_offer_keeps_claims_monotonic():
    # shedding must never *decrease* a bucket's claimed time: placements
    # handed out earlier are upper bounds and stay valid
    queue = InstanceBucketQueue(10, max_items=2, policy="drop-oldest")
    placement, shed = queue.offer(_Item(6))
    assert placement is not None and shed == []
    queue.offer(_Item(6))
    claims_before = {id(b): b.claimed_ns for b in queue._buckets}
    _, shed = queue.offer(_Item(6))
    assert shed  # the bound forced a shed
    assert len(queue) <= 2
    for bucket in queue._buckets:
        before = claims_before.get(id(bucket))
        if before is not None:
            assert bucket.claimed_ns >= before


# ------------------------------------------------------------- breakers


def test_breaker_trips_after_threshold_and_rejects():
    config = BreakerConfig(failure_threshold=3, window=10.0, cooldown=20.0)
    breaker = CircuitBreaker(config, name="b")
    for t in (1.0, 2.0, 3.0):
        breaker.record_failure(t)
    assert breaker.state is BreakerState.OPEN
    assert breaker.is_open
    assert not breaker.allow(4.0)
    assert breaker.rejected == 1


def test_breaker_window_slides():
    config = BreakerConfig(failure_threshold=3, window=5.0)
    breaker = CircuitBreaker(config, name="b")
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    breaker.record_failure(20.0)  # the first two fell out of the window
    assert breaker.state is BreakerState.CLOSED


def test_breaker_half_open_probe_closes():
    config = BreakerConfig(failure_threshold=1, cooldown=10.0,
                           half_open_probes=1)
    breaker = CircuitBreaker(config, name="b")
    breaker.record_failure(0.0)
    assert breaker.is_open
    assert not breaker.allow(5.0)          # still cooling down
    assert breaker.allow(10.0)             # the half-open probe
    assert not breaker.allow(10.5)         # probe budget spent
    breaker.record_success(11.0)
    assert breaker.state is BreakerState.CLOSED


def test_breaker_failed_probe_reopens():
    config = BreakerConfig(failure_threshold=1, cooldown=10.0)
    breaker = CircuitBreaker(config, name="b")
    breaker.record_failure(0.0)
    assert breaker.allow(10.0)
    breaker.record_failure(10.5)
    assert breaker.is_open
    assert not breaker.allow(15.0)


def test_breaker_recloses_after_random_bursts():
    # property: whatever burst of failures hits a closed breaker, once
    # the source quiesces (cooldown passes, one probe is served) the
    # breaker is closed again
    rng = random.Random(7)
    for trial in range(50):
        config = BreakerConfig(
            failure_threshold=rng.randint(1, 5),
            window=rng.uniform(1.0, 20.0),
            cooldown=rng.uniform(1.0, 30.0),
        )
        breaker = CircuitBreaker(config, name=f"b{trial}")
        t = 0.0
        for _ in range(rng.randint(1, 40)):
            t += rng.uniform(0.01, 2.0)
            if breaker.allow(t):
                if rng.random() < 0.7:
                    breaker.record_failure(t)
                else:
                    breaker.record_success(t)
        # quiescence: wait out the cooldown, then serve one probe
        t += config.cooldown + 1.0
        deadline = t + 10 * config.cooldown
        while breaker.state is not BreakerState.CLOSED and t < deadline:
            if breaker.allow(t):
                breaker.record_success(t + 0.01)
            t += config.cooldown + 1.0
        assert breaker.state is BreakerState.CLOSED


# ------------------------------------------------------------- detector


#: one detector call: a gap in quarter tu (so ``now - window`` is exact
#: and lands on earlier arrivals), then a declared cost, or ``None``
#: for a ``poll``
_DETECTOR_STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)),
    ),
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(window=st.sampled_from([0.5, 2.0, 10.0]), steps=_DETECTOR_STEPS)
# an arrival at 2.5 polled at 12.5 sits exactly one window back: kept
@example(window=10.0, steps=[(10, 1.5), (40, None)])
def test_detector_demand_is_the_window_sum_in_arrival_order(window, steps):
    detector = OverloadDetector(DetectorConfig(window=window))
    arrivals: list[tuple[float, float]] = []
    now = 0.0
    for gap, cost in steps:
        now += gap / 4
        if cost is None:
            detector.poll(now)
        else:
            detector.note_arrival(now, cost)
            arrivals.append((now, cost))
        expected = sum(c for t, c in arrivals if t >= now - window) / window
        assert detector.demand_utilization(now) == expected


# ------------------------------------------------- golden-path identity


def _tiny_system() -> GeneratedSystem:
    events = tuple(
        AperiodicEventSpec(event_id=i, release=2.0 + 7.0 * i,
                           declared_cost=1.5)
        for i in range(6)
    )
    return GeneratedSystem(
        system_id=0,
        server=ServerSpec(capacity=2.0, period=10.0, priority=5),
        events=events,
        horizon=60.0,
        periodic_tasks=(
            PeriodicTaskSpec(name="T1", cost=0.5, period=5.0, priority=2),
        ),
    )


@pytest.mark.parametrize("runner", [simulate_system, execute_system])
@pytest.mark.parametrize("policy", ["polling", "deferrable"])
def test_disabled_overload_is_identity(runner, policy):
    system = _tiny_system()
    golden = runner(system, policy)
    disabled = runner(system, policy, overload=OverloadConfig())
    assert disabled.trace.events == golden.trace.events
    assert disabled.trace.segments == golden.trace.segments


def test_multicore_disabled_overload_is_identity():
    from repro.smp.campaign import (
        MulticoreParameters,
        build_multicore_system,
        run_multicore_system,
    )

    params = MulticoreParameters(n_cores=2, n_tasks=4,
                                 total_utilization=0.8, task_density=2.0)
    system = build_multicore_system(params, 0)
    for mode in ("part-ff", "global-fp"):
        golden = run_multicore_system(system, 2, mode)
        disabled = run_multicore_system(
            system, 2, mode, overload=OverloadConfig()
        )
        assert disabled.trace.events == golden.trace.events


# ------------------------------------------------- the acceptance burst


def _burst_system() -> GeneratedSystem:
    """A 2x-sustainable burst at t=10..12, then a quiet probe tail.

    The server sustains capacity/period = 0.2; the burst packs 10 tu of
    work into 2 tu (demand 5/tu, 25x the sustainable rate and far beyond
    the 2x the acceptance criterion requires).
    """
    burst = tuple(
        AperiodicEventSpec(event_id=i, release=10.0 + 0.2 * i,
                           declared_cost=1.0)
        for i in range(10)
    )
    tail = tuple(
        AperiodicEventSpec(event_id=10 + i, release=50.0 + 10.0 * i,
                           declared_cost=0.3)
        for i in range(4)
    )
    return GeneratedSystem(
        system_id=0,
        server=ServerSpec(capacity=2.0, period=10.0, priority=9),
        events=burst + tail,
        horizon=100.0,
        periodic_tasks=(
            PeriodicTaskSpec(name="T1", cost=0.5, period=5.0, priority=2),
            PeriodicTaskSpec(name="T2", cost=2.0, period=20.0, priority=1),
        ),
    )


def _acceptance_overload() -> OverloadConfig:
    return OverloadConfig(
        queue_bound=QueueBound(max_items=3, policy="drop-oldest"),
        breaker=BreakerConfig(failure_threshold=3, window=10.0,
                              cooldown=20.0),
        detector=DetectorConfig(),
    )


@pytest.mark.parametrize("policy", ["polling", "deferrable"])
def test_burst_acceptance_sim(policy):
    system = _burst_system()
    result = simulate_system(system, policy,
                             overload=_acceptance_overload())
    trace = result.trace
    periodic_names = {t.name for t in system.periodic_tasks}
    misses = [
        e for e in trace.events_of(TraceEventKind.DEADLINE_MISS)
        if e.subject.split("@")[0].rstrip("0123456789#.") in periodic_names
        or any(e.subject.startswith(n) for n in periodic_names)
    ]
    assert misses == [], "periodic tasks must survive the burst unharmed"
    sheds = trace.events_of(TraceEventKind.SHED)
    assert sheds, "a 2x burst against a bounded queue must shed"
    opens = trace.events_of(TraceEventKind.BREAKER_OPEN)
    closes = trace.events_of(TraceEventKind.BREAKER_CLOSE)
    assert opens, "the failure run must trip the breaker"
    assert closes and closes[-1].time > opens[-1].time, (
        "the breaker must re-close once the burst passes"
    )
    report = measure_overload(trace, result.jobs, horizon=system.horizon)
    assert report.recovered, "recovery must complete inside the horizon"
    assert report.recovery_time < system.horizon
    assert report.shed_rate > 0
    # the tail probes complete: the system is live after recovery
    tail_names = {f"h{10 + i}" for i in range(4)}
    completed = {
        e.subject for e in trace.events_of(TraceEventKind.COMPLETION)
    }
    assert tail_names & completed, "post-burst arrivals must be served"


def test_burst_acceptance_exec():
    system = _burst_system()
    result = execute_system(system, "polling",
                            overload=_acceptance_overload())
    trace = result.trace
    sheds = trace.events_of(TraceEventKind.SHED)
    assert sheds
    assert trace.events_of(TraceEventKind.BREAKER_OPEN)
    served = [j for j in result.jobs if j.response_time is not None]
    assert served, "the emulated arm must keep serving under overload"


# ------------------------------------------- TaskServerParameters guard


def test_server_params_reject_non_relative_time():
    with pytest.raises(ValueError, match="RelativeTime.from_units"):
        TaskServerParameters(capacity=4, period=RelativeTime.from_units(10),
                             priority=5)
    with pytest.raises(ValueError, match="RelativeTime.from_units"):
        TaskServerParameters(capacity=RelativeTime.from_units(4), period=10,
                             priority=5)


def test_server_params_reject_non_positive_times():
    with pytest.raises(ValueError, match="capacity must be positive"):
        TaskServerParameters(capacity=RelativeTime.from_nanos(0),
                             period=RelativeTime.from_units(10), priority=5)
    with pytest.raises(ValueError, match="period must be positive"):
        TaskServerParameters(capacity=RelativeTime.from_units(4),
                             period=RelativeTime.from_nanos(-1), priority=5)


def test_server_params_reject_capacity_over_period():
    with pytest.raises(ValueError, match="exceeds its period"):
        TaskServerParameters(capacity=RelativeTime.from_units(11),
                             period=RelativeTime.from_units(10), priority=5)


def test_server_params_reject_bad_priority_and_start():
    good = dict(capacity=RelativeTime.from_units(4),
                period=RelativeTime.from_units(10))
    with pytest.raises(ValueError, match="priority must be an int"):
        TaskServerParameters(priority="high", **good)
    with pytest.raises(ValueError, match="priority must be an int"):
        TaskServerParameters(priority=True, **good)
    with pytest.raises(ValueError, match="start must be an AbsoluteTime"):
        TaskServerParameters(priority=5, start=3.0, **good)
    with pytest.raises(ValueError, match="start must be >= 0"):
        TaskServerParameters(priority=5,
                             start=AbsoluteTime.from_nanos(-5), **good)
    # and the happy path still constructs
    params = TaskServerParameters(priority=5, **good)
    assert params.capacity_ns == 4 * 10**6


# ------------------------------------------------------------ fail-fast


def test_run_exhausted_is_picklable():
    record = RunRecord(arm="ps_sim", set_key=(1.0, 0.0), system_id=3,
                       status="timeout", attempts=2, error="boom")
    exc = RunExhausted(record.to_dict())
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.record.arm == "ps_sim"
    assert clone.record.status == "timeout"
    assert "ps_sim" in str(clone)


def test_fail_fast_raises_from_campaign(monkeypatch):
    from dataclasses import replace

    import repro.experiments.campaign as camp

    sets = (replace(camp.PAPER_SETS[0], nb_generation=1),)

    def explode(*args, **kwargs):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(camp, "_run_arm", explode)
    policy = RunPolicy(fail_fast=True)
    with pytest.raises(RunExhausted):
        camp.run_campaign(sets=sets, arms=("ps_sim",), run_policy=policy)
    # without fail_fast the failure is recorded, not raised
    result = camp.run_campaign(sets=sets, arms=("ps_sim",),
                               run_policy=RunPolicy())
    assert result.failures


def test_runner_fail_fast_exits_2(monkeypatch):
    import repro.experiments.campaign as campaign_mod
    import repro.experiments.runner as runner_mod

    record = RunRecord(arm="ps_sim", set_key=(1.0, 0.0), system_id=0,
                       status="failed", attempts=1, error="boom")

    def explode(**kwargs):
        raise RunExhausted(record.to_dict())

    # the runner imports the campaign in its table path, at call time
    monkeypatch.setattr(campaign_mod, "run_campaign", explode)
    assert runner_mod.main(["table2", "--fail-fast"]) == 2


# ------------------------------------------------------- campaign arms


def test_overload_campaign_smoke():
    from dataclasses import replace

    import repro.experiments.campaign as camp

    sets = (replace(camp.PAPER_SETS[0], nb_generation=1),)
    result = camp.run_overload_campaign(sets=sets, arms=("ps_sim",))
    assert [r.status for r in result.records] == ["ok"]
    summary = result.summary("ps_sim")
    assert summary["shed_rate"] > 0
    assert summary["periodic_deadline_misses"] == 0
    assert summary["baseline_aart"] > 0


def test_multicore_overload_campaign_smoke():
    from repro.smp.campaign import (
        MulticoreParameters,
        run_multicore_overload_campaign,
    )

    params = MulticoreParameters(n_cores=2, n_tasks=4,
                                 total_utilization=0.8, task_density=3.0)
    result = run_multicore_overload_campaign(params, modes=("part-ff",))
    assert [r.status for r in result.records] == ["ok"]
    summary = result.summary("part-ff")
    assert summary["shed_rate"] > 0
    assert summary["periodic_deadline_misses"] == 0


# ---------------------------------------------------------- smp routing


def test_router_round_robin_matches_modulo():
    from repro.smp.policies import AperiodicRouter

    class _Server:
        def __init__(self):
            self.got = []
            self.pending = []

        def submit(self, now, job):
            self.got.append(job)

    servers = [_Server() for _ in range(3)]
    router = AperiodicRouter(servers)
    jobs = [f"j{i}" for i in range(9)]

    class _J:
        def __init__(self, name):
            self.name = name
            self.declared_cost = 1.0

    for i, name in enumerate(jobs):
        job = _J(name)
        router.route(float(i), job)
        assert router.core_of_job[name] == i % 3
    assert [len(s.got) for s in servers] == [3, 3, 3]


def test_router_skips_open_breakers():
    from repro.smp.policies import AperiodicRouter

    class _Server:
        def __init__(self, breaker=None):
            self.got = []
            self.pending = []
            self.breaker = breaker

        def submit(self, now, job):
            self.got.append(job)

    tripped = CircuitBreaker(BreakerConfig(failure_threshold=1), name="b")
    tripped.record_failure(0.0)
    assert tripped.is_open
    servers = [_Server(breaker=tripped), _Server(), _Server()]
    overload = OverloadConfig(queue_bound=QueueBound(max_items=4),
                              breaker=BreakerConfig())

    class _J:
        def __init__(self, name):
            self.name = name
            self.declared_cost = 1.0

    router = AperiodicRouter(servers, overload)
    for i in range(6):
        router.route(float(i), _J(f"j{i}"))
    assert len(servers[0].got) == 0, "open-breaker server must be skipped"
    assert len(servers[1].got) + len(servers[2].got) == 6
    # the passive check consumed no probes
    assert tripped.rejected == 0

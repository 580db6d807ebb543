"""Property tests: capacity conservation and service guarantees across
the remaining server families.

``test_properties.py`` covers the polling and deferrable servers; this
module extends the same seeded-random treatment to the sporadic,
priority-exchange, slack-stealing and total-bandwidth servers, using
the verification layer's monitors where a family has a budgeted
account and the family's own defining guarantee where it does not.
"""

from __future__ import annotations

import pytest

from repro.analysis.rta import response_time_analysis
from repro.sim import (
    AperiodicJob,
    FixedPriorityPolicy,
    PriorityExchangeServer,
    Simulation,
    SlackStealingServer,
    SporadicServer,
    TraceEventKind,
)
from repro.sim.schedulers.edf import EarliestDeadlineFirstPolicy
from repro.sim.servers.total_bandwidth import TotalBandwidthServer
from repro.verify.invariants import (
    MonotoneClockMonitor,
    NonOverlapMonitor,
    ServerCapacityMonitor,
    run_monitors,
)
from repro.workload.rng import PortableRandom
from repro.workload.spec import PeriodicTaskSpec, ServerSpec

SEEDS = (11, 23, 37, 59, 71, 97)
HORIZON = 60.0


def random_jobs(rng: PortableRandom, horizon: float,
                mean_gap: float = 3.0, max_cost: float = 2.0):
    jobs, t = [], 0.0
    while True:
        t += rng.exponential(mean_gap)
        if t >= horizon * 0.8:
            return jobs
        jobs.append(AperiodicJob(
            f"h{len(jobs)}", release=t,
            cost=rng.uniform(0.2, max_cost),
        ))


def random_tasks(rng: PortableRandom, n: int, target_util: float):
    tasks = []
    for i in range(n):
        period = rng.uniform(6.0, 20.0)
        cost = max(0.2, period * target_util / n)
        tasks.append(PeriodicTaskSpec(
            f"t{i}", cost=cost, period=period, priority=i + 1
        ))
    return tasks


def schedule_monitors():
    """The schedule-legality battery for families without an account."""
    return [NonOverlapMonitor(), MonotoneClockMonitor()]


@pytest.mark.parametrize("seed", SEEDS)
def test_sporadic_server_conserves_capacity(seed):
    rng = PortableRandom(seed)
    capacity = rng.uniform(1.0, 2.5)
    period = rng.uniform(5.0, 9.0)
    sim = Simulation(FixedPriorityPolicy())
    server = SporadicServer(
        ServerSpec(capacity, period, priority=10), name="SS"
    )
    server.attach(sim, horizon=HORIZON)
    for task in random_tasks(rng, n=2, target_util=0.4):
        sim.add_periodic_task(task)
    for job in random_jobs(rng, HORIZON):
        sim.submit_aperiodic(job, server.submit)
    report = run_monitors(sim.run(until=HORIZON), [
        NonOverlapMonitor(),
        MonotoneClockMonitor(),
        ServerCapacityMonitor("SS", capacity, period, family="sporadic"),
    ], horizon=HORIZON)
    assert report.ok, report.summary()
    assert server.capacity <= capacity + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_priority_exchange_ledger_conserved(seed):
    """PE holds no single account the capacity monitor can track
    (budget exchanged down in earlier periods legitimately survives the
    next replenishment), but its defining invariants are checkable
    directly: no ledger level ever goes negative, the server-level
    account never exceeds one grant, exchanged capacity only lives at
    real priority levels, and the schedule itself stays legal."""
    rng = PortableRandom(seed)
    capacity = rng.uniform(1.0, 2.5)
    period = rng.uniform(5.0, 9.0)
    sim = Simulation(FixedPriorityPolicy())
    server = PriorityExchangeServer(
        ServerSpec(capacity, period, priority=10), name="PE"
    )
    server.attach(sim, horizon=HORIZON)
    tasks = random_tasks(rng, n=2, target_util=0.5)
    for task in tasks:
        sim.add_periodic_task(task)
    for job in random_jobs(rng, HORIZON):
        sim.submit_aperiodic(job, server.submit)
    report = run_monitors(sim.run(until=HORIZON), schedule_monitors(),
                          horizon=HORIZON)
    assert report.ok, report.summary()
    assert all(v >= -1e-9 for v in server.ledger.values())
    assert server.ledger.get(server.priority, 0.0) <= capacity + 1e-9
    legal_levels = {server.priority} | {t.priority for t in tasks}
    assert set(server.ledger) <= legal_levels
    grants = 1 + int((HORIZON - 1e-9) // period)
    assert server.capacity <= grants * capacity + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_slack_stealer_never_breaks_schedulable_sets(seed):
    """Whenever RTA declares the periodic set schedulable, stealing
    slack for aperiodic work must not introduce a single miss."""
    rng = PortableRandom(seed)
    tasks = random_tasks(rng, n=3, target_util=0.55)
    assert response_time_analysis(tasks).schedulable
    sim = Simulation(FixedPriorityPolicy())
    server = SlackStealingServer(
        ServerSpec(1.0, 1000.0, priority=10), name="SL"
    )
    server.attach(sim, horizon=HORIZON)
    for task in tasks:
        sim.add_periodic_task(task)
    for job in random_jobs(rng, HORIZON, mean_gap=4.0):
        sim.submit_aperiodic(job, server.submit)
    trace = sim.run(until=HORIZON)
    report = run_monitors(trace, schedule_monitors(), horizon=HORIZON)
    assert report.ok, report.summary()
    assert trace.events_of(TraceEventKind.DEADLINE_MISS) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_tbs_meets_every_stamped_deadline(seed):
    """With periodic EDF load plus the reserved bandwidth below 1, every
    job must finish by the deadline stamped on its RELEASE event."""
    rng = PortableRandom(seed)
    utilization = rng.uniform(0.2, 0.35)
    sim = Simulation(EarliestDeadlineFirstPolicy())
    server = TotalBandwidthServer(utilization=utilization)
    server.attach(sim, horizon=HORIZON)
    for task in random_tasks(rng, n=2, target_util=0.5):
        sim.add_periodic_task(task)
    jobs = random_jobs(rng, HORIZON, mean_gap=5.0, max_cost=1.5)
    for job in jobs:
        sim.submit_aperiodic(job, server.submit)
    trace = sim.run(until=HORIZON)
    report = run_monitors(trace, schedule_monitors(), horizon=HORIZON)
    assert report.ok, report.summary()
    stamped = {
        e.subject: float(e.detail.split("=", 1)[1])
        for e in trace.events_of(TraceEventKind.RELEASE)
        if e.detail.startswith("tbs-deadline=")
    }
    assert len(stamped) == len(jobs)
    for job in jobs:
        # the %g-formatted detail only carries 6 significant digits
        tolerance = 1e-5 * max(1.0, abs(stamped[job.name]))
        if job.finish_time is not None:
            assert job.finish_time <= stamped[job.name] + tolerance
        else:
            # unfinished is only legitimate past the horizon's edge
            assert stamped[job.name] > HORIZON - tolerance

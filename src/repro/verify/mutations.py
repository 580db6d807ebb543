"""Deliberate scheduler bugs, behind test-only context managers.

The monitors are only trustworthy if they are non-vacuous: each family
must demonstrably catch at least one real kernel bug.  Each mutation
here monkey-patches one well-understood defect into the live code for
the duration of a ``with`` block — a priority inversion, a leaking
capacity account, a replenishment that over-grants, a lost wakeup, a
breaker that closes on failure, a skewed trace clock, a skipped server
activation, a double completion — and :data:`MUTATIONS` records which
violation kinds the verification layer is expected to report for it.

Strictly test infrastructure: nothing in the package imports this
module on the golden path.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..overload.breaker import CircuitBreaker
from ..sim.engine import PeriodicTaskEntity
from ..sim.schedulers.edf import EarliestDeadlineFirstPolicy
from ..sim.schedulers.fp import FixedPriorityPolicy
from ..sim.servers.base import AperiodicServer
from ..sim.servers.deferrable import IdealDeferrableServer
from ..sim.servers.polling import IdealPollingServer
from ..sim.trace import ExecutionTrace, TraceEventKind

__all__ = [
    "MUTATIONS",
    "MutationOutcome",
    "mutation",
    "run_mutation_selftest",
]


@contextmanager
def _fp_inversion():
    """FP picks the *lowest*-priority ready entity (classic inversion)."""
    original = FixedPriorityPolicy.select

    def select(self, now, ready):
        if not ready:
            return None
        best = min(range(len(ready)), key=lambda i: (ready[i].priority, i))
        return ready[best]

    FixedPriorityPolicy.select = select
    try:
        yield
    finally:
        FixedPriorityPolicy.select = original


@contextmanager
def _edf_inversion():
    """EDF picks the *latest*-deadline ready entity."""
    original = EarliestDeadlineFirstPolicy.select

    def select(self, now, ready):
        if not ready:
            return None
        best = max(
            range(len(ready)),
            key=lambda i: (ready[i].current_deadline(now), -i),
        )
        return ready[best]

    EarliestDeadlineFirstPolicy.select = select
    try:
        yield
    finally:
        EarliestDeadlineFirstPolicy.select = original


@contextmanager
def _capacity_leak():
    """The server's capacity account never drains: it serves past its
    budget inside every replenishment window."""
    original = AperiodicServer.consume

    def consume(self, start, duration, sim):
        before = self.capacity
        original(self, start, duration, sim)
        self.capacity = before  # the drain leaks straight back

    AperiodicServer.consume = consume
    try:
        yield
    finally:
        AperiodicServer.consume = original


@contextmanager
def _over_replenish():
    """The Deferrable Server refills to twice its configured capacity."""
    original = IdealDeferrableServer._replenish_full

    def replenish_full(self, now):
        self.capacity = 0.0
        grant = 2.0 * self.spec.capacity * self.service_scale
        self._replenish(now, grant, cap=grant)

    IdealDeferrableServer._replenish_full = replenish_full
    try:
        yield
    finally:
        IdealDeferrableServer._replenish_full = original


@contextmanager
def _lost_release():
    """Lost wakeup: every third release is announced on the trace but
    never queued, so the job silently never runs."""
    original = PeriodicTaskEntity.release
    counter = {"n": 0}

    def release(self, now, job, sim):
        counter["n"] += 1
        if counter["n"] % 3 == 0:
            # the RELEASE event fires, the queue append is lost
            sim.trace.add_event(now, TraceEventKind.RELEASE, job.name)
            return
        original(self, now, job, sim)

    PeriodicTaskEntity.release = release
    try:
        yield
    finally:
        PeriodicTaskEntity.release = original


@contextmanager
def _breaker_close_bug():
    """A failure *closes* the breaker instead of counting toward a trip."""
    original = CircuitBreaker.record_failure

    def record_failure(self, now):
        self._close(now)

    CircuitBreaker.record_failure = record_failure
    try:
        yield
    finally:
        CircuitBreaker.record_failure = original


@contextmanager
def _clock_skew():
    """Segments are recorded 0.25tu early, overlapping their
    predecessors; the trace's own assert is disarmed so the run
    completes and the sanitizer has to catch it."""
    original_add = ExecutionTrace.add_segment
    original_validate = ExecutionTrace.validate

    def add_segment(self, start, end, entity, job=None, core=None):
        if start > 0.5:
            start = start - 0.25
        original_add(self, start, end, entity, job, core)

    ExecutionTrace.add_segment = add_segment
    ExecutionTrace.validate = lambda self: None
    try:
        yield
    finally:
        ExecutionTrace.add_segment = original_add
        ExecutionTrace.validate = original_validate


@contextmanager
def _polling_skip_activation():
    """The Polling Server misses every other activation: pending jobs
    wait a full extra period, breaking the Section 7 response bound."""
    original = IdealPollingServer._activate
    counter = {"n": 0}

    def activate(self, now):
        counter["n"] += 1
        if counter["n"] % 2 == 0:
            self.capacity = 0.0
            self.record_capacity(now)
            return
        original(self, now)

    IdealPollingServer._activate = activate
    try:
        yield
    finally:
        IdealPollingServer._activate = original


@contextmanager
def _double_completion():
    """Completion bookkeeping fires twice for every periodic job."""
    original = PeriodicTaskEntity.on_budget_exhausted

    def on_budget_exhausted(self, now, sim):
        head = self._queue[0] if self._queue else None
        original(self, now, sim)
        if head is not None and head.finish_time is not None:
            sim.trace.add_event(
                now, TraceEventKind.COMPLETION, head.name
            )

    PeriodicTaskEntity.on_budget_exhausted = on_budget_exhausted
    try:
        yield
    finally:
        PeriodicTaskEntity.on_budget_exhausted = original


#: mutation name -> (context manager factory, violation kinds at least
#: one of which the verification layer must report under the mutation)
MUTATIONS = {
    "fp-inversion": (_fp_inversion, {"fp-inversion"}),
    "edf-inversion": (_edf_inversion, {"edf-inversion"}),
    "capacity-leak": (_capacity_leak, {"capacity-overdraw"}),
    "over-replenish": (_over_replenish, {"over-replenish"}),
    "lost-release": (_lost_release, {"fp-inversion", "unserved-release"}),
    "breaker-close-bug": (
        _breaker_close_bug,
        {"breaker-close-without-open", "shed-while-closed"},
    ),
    "clock-skew": (_clock_skew, {"overlap"}),
    "polling-skip-activation": (
        _polling_skip_activation,
        {"response-time-mismatch", "unserved-within-bound",
         "admission-bound-exceeded", "admitted-not-served",
         "aart-speedup"},
    ),
    "double-completion": (_double_completion, {"duplicate-terminal"}),
}


def mutation(name: str):
    """The context manager arming one named mutation."""
    try:
        factory, _expected = MUTATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; have {sorted(MUTATIONS)}"
        ) from None
    return factory()


# -- self-test --------------------------------------------------------------


def _selftest_system(seed: int = 6021, dense: bool = True,
                     tasks: bool = True):
    """A deterministic workload busy enough to exercise every monitor."""
    from dataclasses import replace

    from ..workload.generator import RandomSystemGenerator
    from ..workload.spec import GenerationParameters, PeriodicTaskSpec

    params = GenerationParameters(
        task_density=6.0 if dense else 2.0,
        average_cost=0.8,
        std_deviation=0.2,
        server_capacity=2.0,
        server_period=10.0,
        nb_generation=1,
        seed=seed,
        horizon_periods=8,
    )
    system = RandomSystemGenerator(params).generate()[0]
    if tasks:
        system = replace(system, periodic_tasks=(
            PeriodicTaskSpec("lo", cost=1.5, period=12.0, priority=1),
            PeriodicTaskSpec("hi", cost=1.0, period=7.0, priority=2),
        ))
    return system


def _check_sim(policy: str, oracles: bool = False,
               overload: bool = False):
    """Scenario closure: one verified ``simulate_system`` run."""
    def run():
        from ..experiments.campaign import (
            default_overload_config,
            simulate_system,
        )
        from .oracle import admission_oracle, polling_response_oracle

        system = _selftest_system()
        config = default_overload_config() if overload else None
        if overload:
            from ..faults.injectors import EventBurst, FaultPlan

            system = FaultPlan(
                injectors=(EventBurst(
                    extra=5, probability=0.9, spacing=0.02
                ),),
                seed=17,
            ).apply(system)
        result = simulate_system(
            system, policy, overload=config, verify=True
        )
        report = result.report
        if oracles and policy == "polling":
            polling_response_oracle(system, result.trace, report=report)
            admission_oracle(system, result.trace, report=report)
        return report
    return run


def _check_edf():
    """Scenario closure: an EDF run swept by the ordering monitor."""
    from ..sim.engine import Simulation
    from ..workload.spec import PeriodicTaskSpec
    from .invariants import EDFOrderMonitor, NonOverlapMonitor, run_monitors

    specs = (
        PeriodicTaskSpec("long", cost=2.0, period=10.0, priority=1),
        PeriodicTaskSpec("short", cost=2.0, period=5.0, priority=1),
    )
    sim = Simulation(EarliestDeadlineFirstPolicy())
    for spec in specs:
        sim.add_periodic_task(spec)
    return run_monitors(sim.run(until=40.0), [
        NonOverlapMonitor(),
        EDFOrderMonitor({s.name: s.period for s in specs}),
    ], horizon=40.0)


#: mutation name -> scenario whose verified run the mutation must break
_SELFTEST_SCENARIOS = {
    "fp-inversion": _check_sim("polling"),
    "edf-inversion": _check_edf,
    "capacity-leak": _check_sim("polling"),
    "over-replenish": _check_sim("deferrable"),
    "lost-release": _check_sim("polling"),
    "breaker-close-bug": _check_sim("polling", overload=True),
    "clock-skew": _check_sim("polling"),
    "polling-skip-activation": _check_sim("polling", oracles=True),
    "double-completion": _check_sim("polling"),
}


class MutationOutcome:
    """One row of the self-test: what the armed mutation provoked."""

    def __init__(self, name: str, expected: set[str], baseline_ok: bool,
                 kinds: set[str]) -> None:
        self.name = name
        self.expected = expected
        self.baseline_ok = baseline_ok
        self.kinds = kinds

    @property
    def caught(self) -> bool:
        return self.baseline_ok and bool(self.kinds & self.expected)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MutationOutcome {self.name} caught={self.caught} "
            f"kinds={sorted(self.kinds)}>"
        )


def run_mutation_selftest() -> list[MutationOutcome]:
    """Prove every monitor family non-vacuous.

    For each registered mutation: the scenario must verify clean on the
    pristine code, and report at least one of the expected violation
    kinds with the mutation armed.  Returns one outcome per mutation;
    callers assert ``all(o.caught for o in outcomes)``.
    """
    outcomes = []
    for name, (factory, expected) in MUTATIONS.items():
        scenario = _SELFTEST_SCENARIOS[name]
        baseline_ok = scenario().ok
        with factory():
            mutated = scenario()
        outcomes.append(MutationOutcome(
            name, set(expected), baseline_ok, set(mutated.kinds())
        ))
    return outcomes

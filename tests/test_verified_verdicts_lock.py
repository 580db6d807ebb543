"""The verdicts of verified runs, pinned.

Clean chaos systems must verify clean on both uniprocessor arms and in
the multicore modes, and each mutation of :mod:`repro.verify.mutations`
must provoke the same violations, whichever way the monitors are fed.

``SPANNING`` lists the ``uni-deferrable`` chaos scenarios at the master
seed below whose Deferrable Server runs straight through a
replenishment: the trace stores that run as one segment across the
refill, so a monitor that charged the whole segment to one budget
period would report a ``capacity-overdraw`` on a clean run.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.campaign import execute_system, simulate_system
from repro.sim.trace import TraceEventKind
from repro.verify.chaos import _scenario_seed, _uni_system, run_chaos_campaign
from repro.verify.mutations import MUTATIONS, _SELFTEST_SCENARIOS
from repro.workload.rng import PortableRandom

SEED = 20260806
SPANNING = (0, 9, 11, 12, 13, 25, 29, 31, 35, 50)

#: violation counts per kind under each mutation's self-test scenario
MUTATION_COUNTS = {
    "fp-inversion": {"fp-inversion": 1},
    "edf-inversion": {"edf-inversion": 4},
    "capacity-leak": {"capacity-overdraw": 68},
    "over-replenish": {"over-replenish": 7},
    "lost-release": {"fp-inversion": 1},
    "breaker-close-bug": {"breaker-close-without-open": 323},
    "polling-skip-activation": {
        "admission-bound-exceeded": 7,
        "admitted-not-served": 5,
        "response-time-mismatch": 7,
        "unserved-within-bound": 11,
    },
    "double-completion": {"duplicate-terminal": 19},
}


def _spanning_system(index: int):
    seed = _scenario_seed(SEED, index)
    return _uni_system(PortableRandom(seed), seed)


def test_deferrable_chaos_systems_verify_clean():
    result = run_chaos_campaign(
        n_systems=60, seed=SEED, flavors=("uni-deferrable",), shrink=False,
    )
    assert len(result.runs) == 60
    assert result.ok, result.summary()


def test_multicore_chaos_systems_verify_clean():
    result = run_chaos_campaign(
        n_systems=30, seed=SEED, flavors=("mc-part", "mc-global"),
        shrink=False,
    )
    assert len(result.runs) == 30
    assert result.ok, result.summary()


@pytest.mark.parametrize("index", SPANNING)
def test_spanning_systems_store_a_segment_across_a_refill(index):
    trace = simulate_system(_spanning_system(index), "deferrable").trace
    refills = [
        e.time for e in trace.events_of(TraceEventKind.REPLENISH, "DEFERRABLE")
    ]
    assert any(
        segment.start + 1e-9 < at < segment.end - 1e-9
        for segment in trace.segments_of("DEFERRABLE")
        for at in refills
    )


@pytest.mark.parametrize("index", SPANNING)
def test_execution_arm_verifies_spanning_systems(index):
    result = execute_system(_spanning_system(index), "deferrable", verify=True)
    assert result.report is not None
    assert result.report.ok, result.report.summary()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_violation_counts(name):
    factory, expected = MUTATIONS[name]
    with factory():
        report = _SELFTEST_SCENARIOS[name]()
    counts = Counter(violation.kind for violation in report.violations)
    assert counts.keys() & expected
    if name == "clock-skew":
        # the skewed segments overlap their predecessors; only the
        # overlap count is pinned
        assert counts["overlap"] == 54
    else:
        assert dict(counts) == MUTATION_COUNTS[name]

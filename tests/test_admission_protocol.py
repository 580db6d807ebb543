"""The Section 7 admission protocol's verdicts, locked.

Each storm case injects one defect into the admission service by
patching one of its methods, runs a storm at three seeds and counts the
violations the service's own verification reports, by kind.  The skewed
storms use the ``perfbench`` skew; the re-plan case runs unskewed and
without the overload burst, so that few real divergences excuse the
spurious re-plans.

The timeline cases feed :class:`AdmissionProtocolMonitor` hand-built
timelines, one rule each, untagged (a service or a gateway) and with
the fabric's ``[shard-k]`` tag.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.service import StormConfig, run_service_storm
from repro.service.service import AdmissionService
from repro.sim.trace import ExecutionTrace, TraceEventKind
from repro.verify import AdmissionProtocolMonitor, run_monitors

SEEDS = (1983, 1984, 1985)
SKEW = {"drift_ppm": 40000.0, "overrun_factor": 1.6,
        "overrun_probability": 0.5}

#: the unpatched method every injected defect wraps
_complete = AdmissionService._complete


def _cut_completes(self, now, job, actual, served):
    """A hard request that overran is completed late instead of cut."""
    self._complete(now, job, actual, served)


def _early_complete(self, now, job, actual, served):
    _complete(self, now - 0.5, job, actual, served)


def _after_complete(ending: str, record):
    """``_complete``, then ``record(service, now, request_id)`` for the
    ids that end in ``ending``."""
    def patched(self, now, job, actual, served):
        _complete(self, now, job, actual, served)
        if job.request.request_id.endswith(ending):
            record(self, now, job.request.request_id)
    return patched


def _complete_without_completion(self, now, job, actual, served):
    """``_complete`` that records no ``COMPLETION`` for ids ending in 3."""
    if not job.request.request_id.endswith("3"):
        return _complete(self, now, job, actual, served)
    trace = self.trace
    add = trace.add_event

    def add_all_but_completion(time, kind, subject, detail=""):
        if kind is not TraceEventKind.COMPLETION:
            add(time, kind, subject, detail)

    trace.add_event = add_all_but_completion
    try:
        _complete(self, now, job, actual, served)
    finally:
        del trace.add_event


#: case -> (patched method, its replacement, storm settings, violations
#: summed over the three seeds)
DEFECTS = {
    "none": (None, None, SKEW, {}),
    "cut-routed-to-complete": (
        "_cut", _cut_completes, SKEW, {"hard-deadline-miss": 7},
    ),
    "second-completion": (
        "_complete",
        _after_complete("", lambda service, now, rid: service.trace.add_event(
            now, TraceEventKind.COMPLETION, rid, detail="completed again")),
        SKEW, {"duplicate-terminal": 152},
    ),
    "completion-half-a-unit-early": (
        "_complete", _early_complete, SKEW, {"clock-skew": 100},
    ),
    "completion-dropped": (
        "_complete", _complete_without_completion, SKEW,
        {"silently-dropped": 21},
    ),
    "second-release": (
        "_complete",
        _after_complete("9", lambda service, now, rid: service.trace.add_event(
            now, TraceEventKind.RELEASE, rid, detail="admitted again")),
        SKEW, {"duplicate-admission": 17},
    ),
    "breaker-close-without-open": (
        "_complete",
        _after_complete("5", lambda service, now, rid: service.trace.add_event(
            now, TraceEventKind.BREAKER_CLOSE, "src-1",
            detail="closed without opening")),
        SKEW, {"breaker-close-without-open": 13},
    ),
    "replan-without-divergence": (
        "_complete",
        _after_complete("7", lambda service, now, rid: service.trace.add_event(
            now, TraceEventKind.REPLAN, "service", detail="local spurious")),
        {"burst": None}, {"replan-without-divergence": 16},
    ),
}


@pytest.mark.parametrize("case", list(DEFECTS))
def test_injected_defect_gives_its_violations(monkeypatch, case):
    method, replacement, settings, expected = DEFECTS[case]
    if method is not None:
        monkeypatch.setattr(AdmissionService, method, replacement)
    kinds: Counter[str] = Counter()
    for seed in SEEDS:
        report = run_service_storm(StormConfig(seed=seed, **settings))
        kinds.update(v[1:v.index("]")] for v in report.violations)
    assert dict(kinds) == expected


# -- hand-built timelines -----------------------------------------------------

K = TraceEventKind
HARD = "cost=1 deadline=5 hard"
SOFT = "cost=1 deadline=5 soft"
#: untagged: a service or a gateway timeline; tagged: a fabric shard's
TAGS = {"untagged": "", "tagged": " [shard-1]"}

#: case -> (service events as (time, kind, subject, detail), the
#: violations they give, by kind)
TIMELINES = {
    "clean": ([
        (1.0, K.RELEASE, "r1", HARD),
        (2.0, K.COMPLETION, "r1", "actual=2"),
        (5.0, K.RELEASE, "r2", HARD),
        (6.0, K.DIVERGENCE, "twin", "budget-drift"),
        (7.0, K.REPLAN, "service", "local kept=1"),
        (8.0, K.SHED, "r2", "deadline-guard cut"),
        (70.0, K.REPLAN, "service", "restore kept=0"),
    ], {}),
    "duplicate-admission": ([
        (1.0, K.RELEASE, "r1", HARD),
        (2.0, K.RELEASE, "r1", HARD),
        (3.0, K.COMPLETION, "r1", "actual=3"),
    ], {"duplicate-admission": 1}),
    "terminal-without-admission": ([
        (1.0, K.COMPLETION, "r1", "actual=1"),
        (2.0, K.SHED, "r2", "drain cutoff"),
    ], {"terminal-without-admission": 2}),
    "hard-deadline-miss": ([
        (1.0, K.RELEASE, "r1", HARD),
        (6.0, K.DEADLINE_MISS, "r1", "deadline 6 missed"),
        (6.0, K.COMPLETION, "r1", "actual=7"),
    ], {"hard-deadline-miss": 1}),
    # legal; tagged, the details end in "[shard-1]", which holds the
    # letters of "hard"
    "soft-deadline-miss": ([
        (1.0, K.RELEASE, "r1", SOFT),
        (9.0, K.DEADLINE_MISS, "r1", "soft deadline 6 missed"),
        (9.0, K.COMPLETION, "r1", "actual=9"),
    ], {}),
    "replan-without-divergence": ([
        (10.0, K.REPLAN, "service", "local kept=0"),
        (20.0, K.MODE_CHANGE, "service", "degraded"),
        (30.0, K.REPLAN, "service", "degrade kept=2"),
        (90.0, K.REPLAN, "service", "renegotiate kept=2"),
    ], {"replan-without-divergence": 2}),
    "duplicate-terminal": ([
        (1.0, K.RELEASE, "r1", HARD),
        (2.0, K.COMPLETION, "r1", "actual=2"),
        (3.0, K.SHED, "r1", "drain cutoff"),
    ], {"duplicate-terminal": 1}),
    "silently-dropped": ([
        (1.0, K.RELEASE, "r1", HARD),
    ], {"silently-dropped": 1}),
    "resumed-without-admission": ([
        (1.0, K.RELEASE, "r1", f"resumed {HARD}"),
        (2.0, K.COMPLETION, "r1", "actual=2"),
    ], {"resumed-without-admission": 1}),
    "resumed-after-admission": ([
        (1.0, K.RELEASE, "r1", HARD),
        (2.0, K.RELEASE, "r1", f"resumed {HARD}"),
        (3.0, K.COMPLETION, "r1", "actual=3"),
    ], {}),
}


def _sweep(events, tag: str = "", **monitor):
    trace = ExecutionTrace()
    for time, kind, subject, detail in events:
        trace.add_event(time, kind, subject, detail + tag)
    report = run_monitors(
        trace, [AdmissionProtocolMonitor(**monitor)], horizon=100.0,
    )
    return report.violations


@pytest.mark.parametrize("tag", list(TAGS))
@pytest.mark.parametrize("case", list(TIMELINES))
def test_each_rule_on_a_timeline(case, tag):
    events, expected = TIMELINES[case]
    violations = _sweep(events, TAGS[tag])
    assert dict(Counter(v.kind for v in violations)) == expected
    for violation in violations:
        assert "shard-None" not in str(violation)
        if not TAGS[tag]:
            assert "shard" not in violation.detail


def test_tagged_messages_name_the_shards():
    (duplicate,) = _sweep([
        (1.0, K.RELEASE, "r1", f"{HARD} [shard-0]"),
        (2.0, K.RELEASE, "r1", f"{HARD} [shard-1]"),
        (3.0, K.COMPLETION, "r1", "actual=3 [shard-0]"),
    ])
    assert "admitted on shard-0 and again on shard-1" in duplicate.detail
    (dropped,) = _sweep([(1.0, K.RELEASE, "r1", f"{HARD} [shard-1]")])
    assert "admitted at 1 on shard-1 but" in dropped.detail


def test_a_divergence_excuses_replans_on_its_own_shard_only():
    violations = _sweep([
        (1.0, K.DIVERGENCE, "twin", "budget-drift [shard-0]"),
        (2.0, K.REPLAN, "service", "local kept=0 [shard-0]"),
        (3.0, K.REPLAN, "service", "local kept=0 [shard-1]"),
    ])
    assert [(v.kind, v.time) for v in violations] == [
        ("replan-without-divergence", 3.0),
    ]
    assert violations[0].detail.endswith("inside 50tu on shard-1")


@pytest.mark.parametrize("tag", list(TAGS))
def test_admitted_before_makes_a_resumed_release_the_admission(tag):
    resumed = (1.0, K.RELEASE, "r1", f"resumed {HARD}")
    settled = [resumed, (2.0, K.COMPLETION, "r1", "actual=2")]
    assert _sweep(settled, TAGS[tag], admitted_before=["r1"]) == []
    # the re-announcement still owes its terminal ...
    assert [v.kind for v in _sweep(
        [resumed], TAGS[tag], admitted_before=["r1"],
    )] == ["silently-dropped"]
    # ... and admitting the id again is a double admission
    assert [v.kind for v in _sweep(
        [*settled, (3.0, K.RELEASE, "r1", HARD)], TAGS[tag],
        admitted_before=["r1"],
    )] == ["duplicate-admission"]
    # an id not named is still a resumption without an admission
    assert [v.kind for v in _sweep(
        settled, TAGS[tag], admitted_before=["r2"],
    )] == ["resumed-without-admission"]


def test_control_plane_rules():
    violations = _sweep([
        (1.0, K.SHARD_DOWN, "shard-1", "missed 3 heartbeats"),
        (2.0, K.FAILOVER, "src-1", "shard-1 -> shard-0"),
        (3.0, K.SHARD_DOWN, "shard-1", "missed 3 heartbeats"),
        (4.0, K.FAILOVER, "src-2", "shard-2 -> shard-0"),
        (5.0, K.SHARD_RESTORED, "shard-1", "from checkpoint"),
        (6.0, K.SHARD_RESTORED, "shard-1", "from checkpoint"),
    ])
    assert [(v.kind, v.time) for v in violations] == [
        ("duplicate-shard-down", 3.0),
        ("failover-without-down", 4.0),
        ("restore-without-down", 6.0),
    ]

"""The gateway's ingestion-protocol verdicts, locked.

Each timeline case feeds :class:`GatewayProtocolMonitor` a hand-built
timeline, one rule each, in the listed order, the way a sweep feeds a
merged gateway timeline: every event with its running index, then
``finish`` at the horizon.  The service's ``RELEASE`` events sit on the
same timeline, since an ``admit`` answer must be backed by one.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.sim.trace import ExecutionTrace, TraceEventKind
from repro.verify import GatewayProtocolMonitor, VerificationReport
from repro.verify.invariants import run_monitors

K = TraceEventKind
HARD = "cost=1 deadline=5 hard"
HORIZON = 100.0


def _ingest(time: float, rid: str) -> tuple:
    """An ``INGEST`` as the dispatcher records it, at its stamp."""
    return (time, K.INGEST, rid, "")


def _answer(time: float, rid: str, detail: str) -> tuple:
    return (time, K.RESPONSE, rid, detail)


#: case -> (timeline as (time, kind, subject, detail), the violations
#: it gives, by kind)
TIMELINES = {
    "clean": ([
        _ingest(1.0, "r1"),
        (1.0, K.RELEASE, "r1", HARD),
        _answer(1.0, "r1", "admit"),
        _ingest(2.0, "r2"),
        _answer(2.0, "r2", "reject_deadline"),
        _answer(2.5, "r3", "reject_busy depth=4/4 edge"),
        # a retried id is answered from the cache, once per frame
        _ingest(3.0, "r1"),
        _answer(3.0, "r1", "admit duplicate"),
        (4.0, K.CLOCK_PAUSE, "clock",
         "loop stalled 450tu where 100tu was expected"),
        (5.0, K.MODE_CHANGE, "gateway", "draining"),
        # a frame accepted before the drain mark still decides there
        _ingest(5.0, "r4"),
        _answer(5.0, "r4", "reject_deadline"),
        _answer(5.5, "r5", "reject_draining edge"),
    ], {}),
    "unanswered-ingest": ([
        _ingest(1.0, "r1"),
        _ingest(2.0, "r2"),
        _answer(2.0, "r2", "reject_deadline"),
        _ingest(3.0, "r2"),
    ], {"unanswered-ingest": 2}),
    "response-without-ingest": ([
        _answer(1.0, "r1", "reject_deadline"),
        _ingest(2.0, "r2"),
        _answer(2.0, "r2", "reject_deadline"),
        # a second answer to one frame unbalances the id as well
        _answer(2.0, "r2", "reject_deadline replayed"),
    ], {"response-without-ingest": 2, "unanswered-ingest": 1}),
    "illegal-edge-rejection": ([
        _answer(1.0, "r1", "admit edge"),
        _answer(2.0, "r2", "reject_deadline edge"),
    ], {"illegal-edge-rejection": 2}),
    "busy-below-bound": ([
        _answer(1.0, "r1", "reject_busy depth=3/4 edge"),
        _answer(2.0, "r2", "reject_busy edge"),
        _answer(3.0, "r3", "reject_busy depth=4/4 edge"),
    ], {"busy-below-bound": 2}),
    "admit-without-release": ([
        _ingest(1.0, "r1"),
        _answer(1.0, "r1", "admit"),
        _ingest(2.0, "r2"),
        (2.0, K.RELEASE, "r2", HARD),
        _answer(2.0, "r2", "admit"),
    ], {"admit-without-release": 1}),
    "non-monotone-ingest": ([
        _ingest(2.0, "r1"),
        _answer(2.0, "r1", "reject_deadline"),
        _ingest(1.0, "r2"),
        _answer(1.0, "r2", "reject_deadline"),
        _ingest(3.0, "r3"),
        _answer(3.0, "r3", "reject_deadline"),
    ], {"non-monotone-ingest": 1}),
    "ingest-after-drain": ([
        (1.0, K.MODE_CHANGE, "gateway", "draining"),
        _ingest(1.0, "r1"),
        _answer(1.0, "r1", "reject_deadline"),
        _ingest(2.0, "r2"),
        _answer(2.0, "r2", "reject_deadline"),
        # the service's own drain mark is not the gateway's
        (3.0, K.MODE_CHANGE, "service", "draining"),
    ], {"ingest-after-drain": 1}),
    "malformed-clock-pause": ([
        (1.0, K.CLOCK_PAUSE, "clock", "loop stalled"),
        (2.0, K.CLOCK_PAUSE, "gateway", "loop stalled"),
    ], {"malformed-clock-pause": 1}),
}


def _trace(events) -> ExecutionTrace:
    trace = ExecutionTrace()
    for time, kind, subject, detail in events:
        trace.add_event(time, kind, subject, detail)
    return trace


def _feed(events) -> VerificationReport:
    """Feed the timeline in its listed order, then close the books."""
    trace = _trace(events)
    report = VerificationReport()
    monitor = GatewayProtocolMonitor()
    monitor.bind(report, trace)
    for index, event in enumerate(trace.events):
        monitor.on_event(index, event)
    monitor.finish(HORIZON)
    return report


@pytest.mark.parametrize("case", list(TIMELINES))
def test_each_rule_on_a_timeline(case):
    events, expected = TIMELINES[case]
    violations = _feed(events).violations
    assert dict(Counter(v.kind for v in violations)) == expected
    for violation in violations:
        assert violation.entities and violation.detail
        assert violation.time in (HORIZON, *(e[0] for e in events))


@pytest.mark.parametrize(
    "case", [case for case, (events, _) in TIMELINES.items()
             if [e[0] for e in events] == sorted(e[0] for e in events)],
)
def test_a_timeline_in_time_order_sweeps_the_same(case):
    events, _expected = TIMELINES[case]
    swept = run_monitors(_trace(events), [GatewayProtocolMonitor()],
                         horizon=HORIZON)
    assert swept.violations == _feed(events).violations


def test_witnesses_and_messages():
    violations = _feed([
        _ingest(1.0, "r1"),
        _ingest(2.0, "r1"),
        _answer(2.0, "r1", "admit"),
        _answer(3.0, "r2", "admit edge"),
    ]).violations
    assert [(v.kind, v.time, v.entities, v.witness) for v in violations] == [
        ("illegal-edge-rejection", 3.0, ("r2",), (3,)),
        ("unanswered-ingest", HORIZON, ("r1",), ()),
        ("admit-without-release", HORIZON, ("r1",), ()),
    ]
    assert "2 frame(s) ingested but 1 answered" in violations[1].detail
    assert "'admit'" in violations[0].detail


def test_a_stamp_regression_under_one_tu_is_seen_late_in_a_run():
    """After 100 s at 1 tu = 1 ms, six significant digits no longer
    tell 123456.4 from 123456.2; the stamp is read off the INGEST's
    time, at full precision."""
    violations = _feed([
        _ingest(123456.4, "r1"),
        _answer(123456.4, "r1", "reject_deadline"),
        _ingest(123456.2, "r2"),
        _answer(123456.2, "r2", "reject_deadline"),
    ]).violations
    assert [(v.kind, v.time, v.entities, v.witness) for v in violations] == [
        ("non-monotone-ingest", 123456.2, ("r2",), (2,)),
    ]
    assert ("stamp 123456.2 precedes the previous stamp 123456.4"
            in violations[0].detail)

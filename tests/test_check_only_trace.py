"""The record-free trace campaign runs use: it stores nothing and raises
on an overlapping segment when ``ExecutionTrace.validate()`` would on the
same in-order stream, and also in one same-start rounding case that
``validate()`` misses."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import campaign
from repro.rtsj import NS_PER_UNIT, RTSJVirtualMachine
from repro.sim import Simulation
from repro.sim.trace import (
    CheckOnlyTrace,
    ExecutionTrace,
    Segment,
    TraceEventKind,
)
from repro.workload import PAPER_SETS

EPS = 1e-9


class TestCheckOnlyTrace:
    def test_stores_nothing(self):
        trace = CheckOnlyTrace()
        trace.add_segment(0.0, 1.0, "a", "a#0")
        trace.add_segment(1.0, 2.0, "b", "b#0")
        trace.add_event(0.5, TraceEventKind.RELEASE, "a#0")
        trace.validate()
        assert len(trace.segments) == len(trace.events) == 0
        assert trace.makespan == 0.0
        assert trace.busy_time() == 0.0

    def test_overlap_raises_on_arrival_with_both_segments(self):
        trace = CheckOnlyTrace()
        trace.add_segment(0.0, 1.0, "a", "a#0")
        trace.add_segment(1.0, 2.0, "a", "a#0")   # merges into [0, 2)
        trace.add_segment(2.0, 3.0, "a", "a#1")   # another job: no merge
        with pytest.raises(AssertionError) as caught:
            trace.add_segment(2.5, 4.0, "b")
        assert str(caught.value) == (
            f"overlapping segments: {Segment(2.0, 3.0, 'a', 'a#1')} / "
            f"{Segment(2.5, 4.0, 'b')}"
        )

    def test_slivers_eps_contiguity_and_merges(self):
        trace = CheckOnlyTrace()
        trace.add_segment(0.0, 2.0, "a")
        trace.add_segment(1.0, 1.0 + EPS / 2, "b")   # dropped sliver
        trace.add_segment(2.0 - EPS / 2, 3.0, "b")   # EPS-close: no overlap
        trace.add_segment(3.0 + EPS / 2, 4.0, "b")   # merges
        with pytest.raises(AssertionError, match=r"end=4\.0, entity='b'"):
            trace.add_segment(3.5, 5.0, "c")

    def test_reports_a_same_start_overlap_validate_misses(self):
        # 100.0 + EPS rounds to a segment a rounding step over EPS long,
        # so it is kept; validate() sorts it first and compares
        # 100.0 < (100.0 + EPS) - EPS, which rounds back to 100.0
        stream = [(100.0, 101.0, "a"), (100.0, 100.0 + EPS, "b")]
        assert stream[1][1] - stream[1][0] > EPS
        stored = ExecutionTrace()
        for segment in stream:
            stored.add_segment(*segment)
        stored.validate()
        trace = CheckOnlyTrace()
        trace.add_segment(*stream[0])
        with pytest.raises(AssertionError, match="overlapping segments"):
            trace.add_segment(*stream[1])

    def test_rejects_negative_event_time(self):
        with pytest.raises(ValueError, match="event time must be >= 0"):
            CheckOnlyTrace().add_event(-1.0, TraceEventKind.RELEASE, "x")

    def test_rejects_a_core(self):
        with pytest.raises(ValueError, match="uniprocessor"):
            CheckOnlyTrace().add_segment(0.0, 1.0, "a", core=0)


# -- the streaming check is validate() on in-order streams ---------------

#: gaps from the previous segment's end to the next start: contiguity,
#: EPS-close contiguity on both sides, idle time, and real overlaps
_GAPS = st.sampled_from(
    [0.0, 0.0, EPS / 2, -EPS / 2, 2 * EPS, -2 * EPS, 0.25, 1.0, -0.5, -1.25]
)
#: lengths: zero and sub-EPS slivers (dropped), and real segments, all
#: clear of EPS by more than a rounding step (see the same-start case
#: above, where validate() itself misses an overlap)
_LENGTHS = st.sampled_from([0.0, EPS / 2, 3 * EPS, 0.25, 0.5, 1.0, 2.75])
_STEPS = st.lists(
    st.tuples(_GAPS, _LENGTHS, st.sampled_from(["a", "b"]),
              st.sampled_from([None, "j1", "j2"])),
    max_size=12,
)


def _in_order_stream(steps):
    """Segments whose starts never decrease, the order a uniprocessor
    kernel emits them in (an overlap shows up as a start before the
    previous end, never before the previous start)."""
    stream = []
    start = end = 0.0
    for gap, length, entity, job in steps:
        start = max(start, end + gap)
        end = start + length
        stream.append((start, end, entity, job))
    return stream


def _raises(trace, stream, at_end: bool) -> bool:
    try:
        for segment in stream:
            trace.add_segment(*segment)
        if at_end:
            trace.validate()
    except AssertionError as exc:
        assert str(exc).startswith("overlapping segments: Segment(")
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(steps=_STEPS)
def test_check_only_raises_iff_execution_trace_validate_raises(steps):
    stream = _in_order_stream(steps)
    assert _raises(CheckOnlyTrace(), stream, at_end=False) == _raises(
        ExecutionTrace(), stream, at_end=True
    )


# -- a campaign run with an overlap fails, as with a stored trace ----------


def _with_intruder(real, horizon_of):
    """Wrap a kernel's run loop so the trace first records a segment
    spanning the whole run: the kernel's first segment overlaps it."""

    def run(self, until):
        self.trace.add_segment(0.0, horizon_of(until), "intruder")
        return real(self, until)

    return run


@pytest.mark.parametrize("arm, kernel, loop, horizon_of", [
    ("ps_sim", Simulation, "_run_main", lambda until: until),
    ("ds_exec", RTSJVirtualMachine, "run", lambda until: until / NS_PER_UNIT),
])
def test_campaign_records_an_overlapping_run_as_failed(
    monkeypatch, arm, kernel, loop, horizon_of,
):
    monkeypatch.setattr(
        kernel, loop, _with_intruder(getattr(kernel, loop), horizon_of)
    )
    sets = (replace(PAPER_SETS[0], nb_generation=1),)
    result = campaign.run_campaign(
        sets=sets, arms=(arm,), run_policy=campaign.RunPolicy()
    )
    [record] = result.records
    assert record.status == "failed"
    assert "AssertionError: overlapping segments" in record.error
    assert "intruder" in record.error

"""Unit tests for the schedule sanitizer (`repro.verify.invariants`)."""

from __future__ import annotations

import pytest

from repro.sim import FixedPriorityPolicy, Simulation
from repro.sim.gantt import svg_gantt, svg_gantt_cores
from repro.sim.trace import (
    ExecutionTrace,
    Segment,
    TraceEvent,
    TraceEventKind,
)
from repro.verify import (
    BreakerMonitor,
    EDFOrderMonitor,
    FixedPriorityMonitor,
    MonotoneClockMonitor,
    NonOverlapMonitor,
    ReleaseAccountingMonitor,
    ServerCapacityMonitor,
    monitors_for_system,
    run_monitors,
    stamp_violations,
)
from repro.verify.mutations import _selftest_system
from repro.workload.spec import PeriodicTaskSpec


def make_trace(segments=(), events=()):
    """A trace assembled directly, bypassing the kernels (and their own
    asserts), so illegal schedules can be fed to the monitors."""
    trace = ExecutionTrace()
    trace.segments = [Segment(*s) for s in segments]
    trace.events = [TraceEvent(*e) for e in events]
    return trace


R, C = TraceEventKind.RELEASE, TraceEventKind.COMPLETION


class TestNonOverlap:
    def test_clean(self):
        trace = make_trace([(0, 2, "a", "a#0", 0), (2, 3, "b", "b#0", 0)])
        assert run_monitors(trace, [NonOverlapMonitor()]).ok

    def test_flags_same_core_overlap(self):
        trace = make_trace([(0, 2, "a", "a#0", 0), (1, 3, "b", "b#0", 0)])
        report = run_monitors(trace, [NonOverlapMonitor()])
        assert report.kinds() == {"overlap"}

    def test_parallel_cores_are_legal(self):
        trace = make_trace([(0, 2, "a", "a#0", 0), (0, 2, "b", "b#0", 1)])
        assert run_monitors(trace, [NonOverlapMonitor()]).ok


class TestMonotoneClock:
    def test_flags_time_regression(self):
        # the sweep visits events in time order; the monitor reads the
        # recorded order and names the late event's index
        trace = make_trace(events=[
            (2.0, R, "a#0", ""), (5.0, R, "b#0", ""),
            (1.0, C, "a#0", ""), (6.0, C, "b#0", ""),
        ])
        report = run_monitors(trace, [MonotoneClockMonitor()])
        assert report.kinds() == {"clock-skew"}
        (violation,) = report.violations
        assert violation.witness == (2,)
        assert violation.entities == ("b#0", "a#0")

    def test_equal_timestamps_are_legal(self):
        trace = make_trace(events=[(1.0, R, "a#0", ""), (1.0, R, "b#0", "")])
        assert run_monitors(trace, [MonotoneClockMonitor()]).ok


class TestOrderingMonitors:
    def test_fp_inversion_flagged(self):
        trace = make_trace(
            segments=[(0, 2, "lo", "lo#0", None), (2, 3, "hi", "hi#0", None)],
            events=[(0, R, "hi#0", ""), (0, R, "lo#0", ""),
                    (2, C, "lo#0", ""), (3, C, "hi#0", "")],
        )
        report = run_monitors(
            trace, [FixedPriorityMonitor({"hi": 2, "lo": 1})], horizon=10.0
        )
        assert report.kinds() == {"fp-inversion"}

    def test_fp_legal_order_clean(self):
        trace = make_trace(
            segments=[(0, 1, "hi", "hi#0", None), (1, 3, "lo", "lo#0", None)],
            events=[(0, R, "hi#0", ""), (0, R, "lo#0", ""),
                    (1, C, "hi#0", ""), (3, C, "lo#0", "")],
        )
        assert run_monitors(
            trace, [FixedPriorityMonitor({"hi": 2, "lo": 1})], horizon=10.0
        ).ok

    def test_fp_core_scope_suppresses_cross_core(self):
        # partitioned: hi waits on core 1 while lo runs on core 0 — legal
        trace = make_trace(
            segments=[(0, 2, "lo", "lo#0", 0), (2, 3, "hi", "hi#0", 1)],
            events=[(0, R, "hi#0", ""), (0, R, "lo#0", ""),
                    (2, C, "lo#0", ""), (3, C, "hi#0", "")],
        )
        monitor = FixedPriorityMonitor(
            {"hi": 2, "lo": 1}, core_of={"hi": 1, "lo": 0}
        )
        assert run_monitors(trace, [monitor], horizon=10.0).ok

    def test_edf_inversion_flagged(self):
        trace = make_trace(
            segments=[(0, 2, "b", "b#0", None), (2, 3, "a", "a#0", None)],
            events=[(0, R, "a#0", ""), (0, R, "b#0", ""),
                    (2, C, "b#0", ""), (3, C, "a#0", "")],
        )
        report = run_monitors(
            trace, [EDFOrderMonitor({"a": 5.0, "b": 20.0})], horizon=10.0
        )
        assert report.kinds() == {"edf-inversion"}

    def test_edf_legal_order_clean(self):
        trace = make_trace(
            segments=[(0, 1, "a", "a#0", None), (1, 3, "b", "b#0", None)],
            events=[(0, R, "a#0", ""), (0, R, "b#0", ""),
                    (1, C, "a#0", ""), (3, C, "b#0", "")],
        )
        assert run_monitors(
            trace, [EDFOrderMonitor({"a": 5.0, "b": 20.0})], horizon=10.0
        ).ok


class TestServerCapacity:
    def monitor(self, **kwargs):
        defaults = dict(server="DS", capacity=1.0, period=5.0,
                        family="deferrable")
        defaults.update(kwargs)
        return ServerCapacityMonitor(**defaults)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            self.monitor(family="cosmic")

    def test_overdraw_flagged(self):
        trace = make_trace([(0, 2, "DS", "h0", None)])
        report = run_monitors(trace, [self.monitor()])
        assert "capacity-overdraw" in report.kinds()

    def test_over_replenish_flagged(self):
        trace = make_trace(
            events=[(5.0, TraceEventKind.REPLENISH, "DS", "capacity=2.5")]
        )
        report = run_monitors(trace, [self.monitor()])
        assert report.kinds() == {"over-replenish"}

    def test_off_boundary_replenish_flagged(self):
        trace = make_trace(
            events=[(3.3, TraceEventKind.REPLENISH, "DS", "capacity=1")]
        )
        report = run_monitors(trace, [self.monitor()])
        assert report.kinds() == {"replenish-off-boundary"}
        relaxed = self.monitor(check_boundary=False)
        assert run_monitors(trace, [relaxed]).ok

    def test_conserving_run_clean(self):
        trace = make_trace(
            segments=[(0, 1, "DS", "h0", None), (5, 6, "DS", "h1", None)],
            events=[(5.0, TraceEventKind.REPLENISH, "DS", "capacity=1")],
        )
        assert run_monitors(trace, [self.monitor()]).ok

    def test_segment_spanning_a_replenishment_is_cut(self):
        # the kernel ran [4,5) on the old budget and [5,6) on the refill;
        # the trace stores them as one segment
        trace = make_trace(
            segments=[(4, 6, "DS", "h0", None)],
            events=[(0, R, "h0", ""),
                    (5.0, TraceEventKind.REPLENISH, "DS", "capacity=1")],
        )
        assert run_monitors(trace, [self.monitor()]).ok

    def test_overdraw_before_a_replenishment_still_flagged(self):
        trace = make_trace(
            segments=[(3, 6, "DS", "h0", None)],
            events=[(5.0, TraceEventKind.REPLENISH, "DS", "capacity=1")],
        )
        report = run_monitors(trace, [self.monitor()])
        assert report.kinds() == {"capacity-overdraw"}
        assert [v.time for v in report.violations] == [5.0]


class TestReleaseAccounting:
    def test_duplicate_terminal_flagged(self):
        trace = make_trace(
            segments=[(0, 1, "t", "t#0", None)],
            events=[(0, R, "t#0", ""), (1, C, "t#0", ""), (2, C, "t#0", "")],
        )
        report = run_monitors(trace, [ReleaseAccountingMonitor()])
        assert "duplicate-terminal" in report.kinds()

    def test_exec_after_terminal_flagged(self):
        trace = make_trace(
            segments=[(0, 1, "t", "t#0", None), (2, 3, "t", "t#0", None)],
            events=[(0, R, "t#0", ""), (1, C, "t#0", "")],
        )
        report = run_monitors(trace, [ReleaseAccountingMonitor()])
        assert "exec-after-terminal" in report.kinds()

    def test_demand_conservation(self):
        trace = make_trace(
            segments=[(0, 1, "t", "t#0", None)],
            events=[(0, R, "t#0", ""), (1, C, "t#0", "")],
        )
        under = run_monitors(
            trace, [ReleaseAccountingMonitor(costs={"t#0": 2.0})]
        )
        assert "under-service" in under.kinds()
        over = run_monitors(
            trace, [ReleaseAccountingMonitor(costs={"t#0": 0.5})]
        )
        assert "over-execution" in over.kinds()
        exact = run_monitors(
            trace, [ReleaseAccountingMonitor(costs={"t#0": 1.0})]
        )
        assert exact.ok

    def test_strict_serve_flags_dropped_release(self):
        trace = make_trace(events=[(0, R, "t#0", "")])
        lax = run_monitors(
            trace, [ReleaseAccountingMonitor(check_demand=False)]
        )
        assert lax.ok
        strict = run_monitors(
            trace,
            [ReleaseAccountingMonitor(check_demand=False, strict_serve=True)],
        )
        assert strict.kinds() == {"unserved-release"}


class TestBreakerMonitor:
    def test_close_without_open_flagged(self):
        trace = make_trace(
            events=[(1.0, TraceEventKind.BREAKER_CLOSE, "src", "")]
        )
        report = run_monitors(trace, [BreakerMonitor()])
        assert report.kinds() == {"breaker-close-without-open"}

    def test_open_then_close_is_legal(self):
        trace = make_trace(events=[
            (1.0, TraceEventKind.BREAKER_OPEN, "src", ""),
            (2.0, TraceEventKind.BREAKER_CLOSE, "src", ""),
        ])
        assert run_monitors(trace, [BreakerMonitor()]).ok


class TestKernelSweep:
    def test_violations_stamped_on_the_trace(self):
        trace = ExecutionTrace()
        trace.add_event(1.0, TraceEventKind.BREAKER_CLOSE, "src")
        report = run_monitors(trace, [BreakerMonitor()], horizon=10.0)
        assert not report.ok
        assert trace.events_of(TraceEventKind.VIOLATION) == []
        stamp_violations(trace, report)
        stamped = trace.events_of(TraceEventKind.VIOLATION)
        assert len(stamped) == 1
        assert stamped[0].subject == "src"
        assert stamped[0].detail == str(report.violations[0])

    def test_clean_engine_run_verifies_ok(self):
        sim = Simulation(FixedPriorityPolicy())
        sim.add_periodic_task(
            PeriodicTaskSpec("hi", cost=1.0, period=5.0, priority=2)
        )
        sim.add_periodic_task(
            PeriodicTaskSpec("lo", cost=2.0, period=10.0, priority=1)
        )
        trace = sim.run(until=30.0)
        report = run_monitors(trace, [
            NonOverlapMonitor(),
            MonotoneClockMonitor(),
            FixedPriorityMonitor({"hi": 2, "lo": 1}),
        ], horizon=30.0)
        assert report.ok, report.summary()
        assert trace.events_of(TraceEventKind.VIOLATION) == []


class TestMonitorsForSystem:
    def test_standard_battery_composition(self):
        system = _selftest_system()
        monitors = monitors_for_system(system)
        names = {type(m).__name__ for m in monitors}
        assert {"NonOverlapMonitor", "MonotoneClockMonitor",
                "BreakerMonitor", "ReleaseAccountingMonitor",
                "FixedPriorityMonitor"} <= names

    def test_edf_policy_swaps_ordering_monitor(self):
        system = _selftest_system()
        monitors = monitors_for_system(system, policy="edf")
        names = {type(m).__name__ for m in monitors}
        assert "EDFOrderMonitor" in names
        assert "FixedPriorityMonitor" not in names

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            monitors_for_system(_selftest_system(), policy="lottery")


class TestGanttViolationMarkers:
    def violating_trace(self):
        trace = ExecutionTrace()
        trace.add_segment(0.0, 1.0, "a", "a#0", core=0)
        trace.add_event(0.5, TraceEventKind.BREAKER_CLOSE, "src")
        stamp_violations(
            trace, run_monitors(trace, [BreakerMonitor()], horizon=2.0)
        )
        return trace

    def test_markers_rendered_on_both_renderers(self):
        trace = self.violating_trace()
        assert "✖" in svg_gantt(trace)
        cores = svg_gantt_cores(trace, n_cores=2)
        assert "✖" in cores
        assert "violation:" in cores

    def test_clean_traces_carry_no_marker(self):
        trace = ExecutionTrace()
        trace.add_segment(0.0, 1.0, "a", "a#0", core=0)
        assert "✖" not in svg_gantt(trace)
        assert "✖" not in svg_gantt_cores(trace, n_cores=2)

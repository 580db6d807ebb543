"""Unit tests for traces, metrics and the Gantt renderers."""

from __future__ import annotations

import pytest

from repro.sim import (
    AperiodicJob,
    ExecutionTrace,
    JobState,
    RunMetrics,
    Segment,
    TraceEventKind,
    aggregate,
    ascii_gantt,
    measure_run,
    svg_gantt,
)


class TestTrace:
    def test_zero_length_segments_dropped(self):
        tr = ExecutionTrace()
        tr.add_segment(1.0, 1.0, "a")
        assert tr.segments == []

    def test_contiguous_segments_merge(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 1.0, "a", "j")
        tr.add_segment(1.0, 2.0, "a", "j")
        assert tr.segments == [Segment(0.0, 2.0, "a", "j")]

    def test_different_jobs_do_not_merge(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 1.0, "a", "j1")
        tr.add_segment(1.0, 2.0, "a", "j2")
        assert len(tr.segments) == 2

    def test_validate_catches_overlap(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 2.0, "a")
        tr.add_segment(1.0, 3.0, "b")
        with pytest.raises(AssertionError):
            tr.validate()

    def test_smp_core_merge(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 1.0, "a", "a#0", core=0)
        tr.add_segment(0.0, 1.0, "b", "b#0", core=1)
        tr.add_segment(1.0, 2.0, "a", "a#0", core=0)  # merges past core 1
        assert tr.segments == [
            Segment(0.0, 2.0, "a", "a#0", core=0),
            Segment(0.0, 1.0, "b", "b#0", core=1),
        ]
        tr.validate()

    def test_busy_time_and_makespan(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 2.0, "a")
        tr.add_segment(3.0, 4.0, "b")
        tr.add_event(7.0, TraceEventKind.RELEASE, "x")
        assert tr.busy_time() == pytest.approx(3.0)
        assert tr.busy_time("a") == pytest.approx(2.0)
        assert tr.makespan == 7.0

    def test_segment_queries(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 1.0, "srv", "h1")
        tr.add_segment(2.0, 3.0, "srv", "h2")
        assert [s.job for s in tr.segments_of("srv")] == ["h1", "h2"]
        assert [s.start for s in tr.segments_of_job("h2")] == [2.0]

    def test_event_filtering(self):
        tr = ExecutionTrace()
        tr.add_event(1.0, TraceEventKind.RELEASE, "a")
        tr.add_event(2.0, TraceEventKind.RELEASE, "b")
        tr.add_event(3.0, TraceEventKind.COMPLETION, "a")
        assert len(tr.events_of(TraceEventKind.RELEASE)) == 2
        assert len(tr.events_of(TraceEventKind.RELEASE, "a")) == 1

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(2.0, 1.0, "a")
        with pytest.raises(ValueError):
            ExecutionTrace().add_event(-1.0, TraceEventKind.RELEASE, "a")


def _job(name, release, cost, finish=None, interrupted=False):
    job = AperiodicJob(name, release=release, cost=cost)
    if interrupted:
        job.interrupted = True
        job.state = JobState.ABORTED
        job.finish_time = finish
    elif finish is not None:
        job.state = JobState.COMPLETED
        job.finish_time = finish
    return job


class TestMetrics:
    def test_measure_run_basic(self):
        jobs = [
            _job("a", 0, 2, finish=2),
            _job("b", 1, 2, finish=5),
            _job("c", 2, 2),                      # never served
            _job("d", 3, 2, finish=6, interrupted=True),
        ]
        m = measure_run(jobs)
        assert m.released == 4
        assert m.served == 2
        assert m.interrupted == 1
        assert m.average_response_time == pytest.approx((2 + 4) / 2)
        assert m.served_ratio == pytest.approx(0.5)
        assert m.interrupted_ratio == pytest.approx(0.25)

    def test_empty_run(self):
        m = measure_run([])
        assert m.served_ratio == 1.0
        assert m.interrupted_ratio == 0.0
        assert m.average_response_time == 0.0

    def test_aggregate_averages_of_averages(self):
        r1 = measure_run([_job("a", 0, 1, finish=2)])      # AART 2, ASR 1
        r2 = measure_run([_job("b", 0, 1, finish=6),
                          _job("c", 0, 1)])                # AART 6, ASR .5
        s = aggregate([r1, r2])
        assert s.aart == pytest.approx(4.0)
        assert s.asr == pytest.approx(0.75)
        assert s.air == 0.0
        assert s.as_row() == {"AART": 4.0, "AIR": 0.0, "ASR": 0.75}

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_run_metrics_is_frozen(self):
        m = measure_run([])
        with pytest.raises(AttributeError):
            m.released = 5  # type: ignore[misc]


class TestGantt:
    def _trace(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 2.0, "PS", "h1")
        tr.add_segment(2.0, 4.0, "t1")
        tr.add_segment(4.0, 4.5, "t2")
        return tr

    def test_ascii_rows_and_cells(self):
        text = ascii_gantt(self._trace(), until=6)
        lines = text.splitlines()
        assert lines[0].startswith("PS")
        assert "|##....|" in lines[0].replace(" ", "")
        assert "|..##..|" in lines[1].replace(" ", "")
        # partial quantum renders as '+'
        assert "+" in lines[2]

    def test_ascii_entity_order_override(self):
        text = ascii_gantt(self._trace(), until=6, entities=["t2", "PS"])
        lines = text.splitlines()
        assert lines[0].startswith("t2")
        assert lines[1].startswith("PS")
        assert len(lines) == 3  # two rows + axis

    def test_ascii_quantum_validation(self):
        with pytest.raises(ValueError):
            ascii_gantt(self._trace(), quantum=0)

    def test_ascii_deterministic(self):
        assert ascii_gantt(self._trace(), until=6) == ascii_gantt(
            self._trace(), until=6
        )

    def test_svg_well_formed_and_labelled(self):
        svg = svg_gantt(self._trace(), until=6)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "PS" in svg and "t1" in svg
        assert svg.count("<rect") >= 4  # background + 3 segments

    def test_svg_escapes_markup(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 1.0, "a<b&c")
        svg = svg_gantt(tr, until=2)
        assert "a&lt;b&amp;c" in svg


class TestSetMetricsDispersion:
    def _set(self):
        runs = [
            measure_run([_job("a", 0, 1, finish=3)]),   # AART 3
            measure_run([_job("b", 0, 1, finish=5)]),   # AART 5
            measure_run([_job("c", 0, 1, finish=7)]),   # AART 7
        ]
        return aggregate(runs)

    def test_std_values(self):
        s = self._set()
        assert s.aart == pytest.approx(5.0)
        assert s.aart_std == pytest.approx(2.0)
        assert s.asr_std == pytest.approx(0.0)
        assert s.air_std == pytest.approx(0.0)

    def test_confidence_halfwidth(self):
        s = self._set()
        assert s.aart_confidence_halfwidth() == pytest.approx(
            1.96 * 2.0 / 3 ** 0.5
        )

    def test_single_run_has_zero_dispersion(self):
        s = aggregate([measure_run([_job("a", 0, 1, finish=3)])])
        assert s.aart_std == 0.0
        assert s.aart_confidence_halfwidth() == 0.0


class TestCapacityRendering:
    def test_staircase_sampling(self):
        from repro.sim import ascii_capacity

        history = [(0.0, 3.0), (2.0, 1.0), (6.0, 3.0)]
        row = ascii_capacity(history, until=8, label="cap")
        assert row == "cap         |33111133|"

    def test_values_above_nine_render_hash(self):
        from repro.sim import ascii_capacity

        row = ascii_capacity([(0.0, 12.0)], until=3, label="cap")
        assert row.endswith("|###|")

    def test_quantum_validation(self):
        from repro.sim import ascii_capacity

        with pytest.raises(ValueError):
            ascii_capacity([(0.0, 1.0)], until=5, quantum=0)


class TestSvgMarkers:
    def _trace(self):
        tr = ExecutionTrace()
        tr.add_segment(0.0, 2.0, "PS", "h1")
        tr.add_event(0.0, TraceEventKind.RELEASE, "h1")
        tr.add_event(2.0, TraceEventKind.COMPLETION, "h1")
        tr.add_event(5.0, TraceEventKind.INTERRUPT, "h1")
        return tr

    def test_markers_rendered_with_tooltips(self):
        svg = svg_gantt(self._trace(), until=6)
        assert "release: h1 at 0" in svg
        assert "completion: h1 at 2" in svg
        assert "interrupt: h1 at 5" in svg

    def test_markers_can_be_disabled(self):
        svg = svg_gantt(self._trace(), until=6, show_markers=False)
        assert "release: h1" not in svg

    def test_markers_beyond_horizon_skipped(self):
        svg = svg_gantt(self._trace(), until=3)
        assert "interrupt: h1" not in svg

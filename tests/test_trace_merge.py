"""The merged timelines and the monitor feeds keep their order.

A serving gateway's online sweep, ``AdmissionFabric.merged_trace`` and
``run_monitors`` each interleave several sequences of records into one
order.  The oracles below are the original formulas: one sort tuple per
record, ``(time, plane, incarnation, append order)`` for the two merges,
and ``(instant, slice-before-event, position)`` for the monitor feed,
one per slice once each stored segment is cut at the event instants
inside it.
The planes are seeded at random on a coarse time grid, so they tie
often, and some records are appended out of time order, as a restored
gateway's service plane does when it replays its journal debt at the
original stamps after it re-announced its resumed jobs.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from repro.fabric import AdmissionFabric, FabricConfig
from repro.gateway import AdmissionGateway, GatewayConfig
from repro.service import AdmissionService, ServiceConfig
from repro.sim.trace import ExecutionTrace, Segment, TraceEvent, TraceEventKind
from repro.verify.invariants import Sweep, TraceMonitor, run_monitors

CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)
KINDS = (
    TraceEventKind.RELEASE, TraceEventKind.COMPLETION, TraceEventKind.SHED,
    TraceEventKind.RECONCILE, TraceEventKind.INGEST,
    TraceEventKind.RESPONSE,
)
SEEDS = range(6)


def _plane(rng: random.Random, tag: str, n: int) -> list[TraceEvent]:
    """``n`` events on a 0.25 grid; about one in six is appended up to
    one time unit before the latest one."""
    events: list[TraceEvent] = []
    clock = 0.0
    for seq in range(n):
        if events and rng.random() < 0.15:
            at = max(0.0, clock - rng.choice((0.25, 0.5, 1.0)))
        else:
            clock += rng.choice((0.0, 0.0, 0.25, 0.5))
            at = clock
        events.append(TraceEvent(
            at, rng.choice(KINDS), f"r{rng.randrange(12)}", f"{tag}#{seq}",
        ))
    return events


def _out_of_order(events: list[TraceEvent]) -> int:
    return sum(b.time < a.time for a, b in zip(events, events[1:]))


# -- the gateway -------------------------------------------------------------


def _seed_gateway(rng: random.Random, tmp_path, incarnations: int,
                  sizes=(60, 40, 120, 80)) -> AdmissionGateway:
    """An unstarted gateway whose planes, archived incarnations
    included, hold seeded random events."""
    gateway = AdmissionGateway(
        GatewayConfig(unix_path=str(tmp_path / "gw.sock")), CONFIG,
    )
    for k in range(incarnations - 1):
        service = ExecutionTrace()
        service.events = _plane(rng, f"svc{k}", sizes[0])
        gateway.archived_service_traces.append(service)
        trace = ExecutionTrace()
        trace.events = _plane(rng, f"gw{k}", sizes[1])
        gateway.archived_traces.append(trace)
    gateway.service.trace.events = _plane(rng, "svc", sizes[2])
    gateway.trace.events = _plane(rng, "gw", sizes[3])
    return gateway


def _gateway_oracle(gateway: AdmissionGateway) -> list[TraceEvent]:
    feed = []
    services = [*gateway.archived_service_traces, gateway.service.trace]
    for incarnation, trace in enumerate(services):
        for seq, event in enumerate(trace.events):
            feed.append((event.time, 0, incarnation, seq, event))
    gateway_planes = [*gateway.archived_traces, gateway.trace]
    for incarnation, trace in enumerate(gateway_planes):
        for seq, event in enumerate(trace.events):
            feed.append((event.time, 1, incarnation, seq, event))
    return [entry[4] for entry in sorted(feed, key=lambda e: e[:4])]


def _flush_in_steps(gateway: AdmissionGateway, rng: random.Random,
                    monitors: list[TraceMonitor]) -> Sweep:
    """Feed the planes to ``monitors`` through the gateway's flush at
    rising watermarks, then everything."""
    gateway._sweep = sweep = Sweep(monitors)
    latest = max(event.time for trace in gateway._planes()
                 for event in trace.events)
    watermark = 0.0
    while watermark < latest:
        watermark += rng.choice((0.25, 0.5, 1.0, 2.5))
        gateway._flush(watermark)
    gateway._flush(float("inf"))
    return sweep


@pytest.mark.parametrize("seed", SEEDS)
def test_gateway_merge_matches_the_sort_oracle(seed, tmp_path):
    rng = random.Random(seed)
    gateway = _seed_gateway(rng, tmp_path, 1 + seed % 3)
    assert _out_of_order(gateway.service.trace.events) > 0
    expected = _gateway_oracle(gateway)

    recorder = _Recorder()
    sweep = _flush_in_steps(gateway, rng, [recorder])
    assert recorder.calls == [
        ("event", index, id(event)) for index, event in enumerate(expected)
    ]
    assert sweep.fed == len(expected) and sweep.report.ok
    assert not any(trace.events for trace in gateway._planes())

def test_a_record_at_the_watermark_keeps_its_rank(tmp_path):
    """A flush feeds only the events before its watermark, so a record
    made at the watermark after the flush still merges in rank order:
    here a service event ahead of the gateway event at its instant."""
    gateway = AdmissionGateway(
        GatewayConfig(unix_path=str(tmp_path / "gw.sock")), CONFIG,
    )
    edge, service = gateway.trace, gateway.service.trace
    edge.add_event(1.0, TraceEventKind.INGEST, "r1")
    edge.add_event(2.0, TraceEventKind.INGEST, "r2")
    first, second = edge.events
    recorder = _Recorder()
    gateway._sweep = Sweep([recorder])
    gateway._flush(2.0)
    service.add_event(2.0, TraceEventKind.RELEASE, "r2", "hard")
    (release,) = service.events
    gateway._flush(float("inf"))
    assert recorder.calls == [
        ("event", 0, id(first)),
        ("event", 1, id(release)),
        ("event", 2, id(second)),
    ]
    assert gateway._sweep.report.ok


# -- the fabric --------------------------------------------------------------


def _fabric_oracle(fabric: AdmissionFabric) -> list[TraceEvent]:
    feed = []
    for shard in fabric.shards:
        for incarnation, service in enumerate(shard.incarnations):
            tag = f" [shard-{shard.index}]"
            for seq, event in enumerate(service.trace.events):
                feed.append((
                    event.time, shard.index, incarnation, seq,
                    TraceEvent(event.time, event.kind, event.subject,
                               event.detail + tag),
                ))
    fabric_rank = len(fabric.shards)
    for seq, event in enumerate(fabric.trace.events):
        feed.append((event.time, fabric_rank, 0, seq, event))
    return [entry[4] for entry in sorted(feed, key=lambda e: e[:4])]


@pytest.mark.parametrize("seed", SEEDS)
def test_fabric_merge_matches_the_sort_oracle(seed):
    rng = random.Random(seed)
    fabric = AdmissionFabric(
        FabricConfig(shards=3, supervised=False), CONFIG,
    )
    for shard in fabric.shards:
        for k in range((seed + shard.index) % 3):
            archived = AdmissionService(fabric.shard_config,
                                        clock=fabric.clock)
            archived.trace.events = _plane(
                rng, f"s{shard.index}i{k}", 50)
            shard.archived.append(archived)
        shard.service.trace.events = _plane(rng, f"s{shard.index}", 90)
    fabric.trace.events = _plane(rng, "fabric", 30)

    merged = fabric.merged_trace().events
    expected = _fabric_oracle(fabric)
    assert [
        (e.time, e.kind, e.subject, e.detail) for e in merged
    ] == [
        (e.time, e.kind, e.subject, e.detail) for e in expected
    ]
    control = set(map(id, fabric.trace.events))
    assert all(
        a is b for a, b in zip(merged, expected) if id(b) in control
    )


# -- the post-hoc monitor feed -----------------------------------------------


class _Recorder(TraceMonitor):
    """Records every call the feed makes, events by identity."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def on_event(self, index: int, event: TraceEvent) -> None:
        self.calls.append(("event", index, id(event)))

    def on_slice(self, start, end, entity, job, core) -> None:
        self.calls.append(("slice", start, end, entity, job, core))

    def finish(self, horizon: float) -> None:
        self.calls.append(("finish", horizon))


def _feed_oracle(trace: ExecutionTrace, horizon: float) -> list[tuple]:
    instants = sorted({event.time for event in trace.events})
    feed = []
    for i, segment in enumerate(trace.segments):
        cuts = [t for t in instants
                if segment.start + 1e-9 < t < segment.end - 1e-9]
        start = segment.start
        for k, end in enumerate([*cuts, segment.end]):
            feed.append((end, 0, (i, k), ("slice", start, end, segment.entity,
                                          segment.job, segment.core)))
            start = end
    for i, event in enumerate(trace.events):
        feed.append((event.time, 1, i, ("event", i, id(event))))
    calls = [entry[3] for entry in sorted(feed, key=lambda entry: entry[:3])]
    calls.append(("finish", horizon))
    return calls


def _cut_segments(trace: ExecutionTrace) -> int:
    times = {event.time for event in trace.events}
    return sum(
        any(s.start + 1e-9 < t < s.end - 1e-9 for t in times)
        for s in trace.segments
    )


def _segments(rng: random.Random, n: int, cores: int) -> list[Segment]:
    """Segments whose ends sit on the events' 0.25 grid, interleaved
    across cores, so some end after their successor does."""
    segments = []
    starts = [0.0] * cores
    for i in range(n):
        core = rng.randrange(cores)
        start = starts[core]
        end = start + rng.choice((0.25, 0.5, 0.75, 1.5))
        starts[core] = end + rng.choice((0.0, 0.25))
        segments.append(Segment(start, end, f"T{i % 4}",
                                f"j{i}" if i % 3 else None,
                                core if cores > 1 else None))
    return segments


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cores", (1, 3))
def test_run_monitors_feeds_in_the_oracle_order(seed, cores):
    rng = random.Random(seed)
    trace = ExecutionTrace()
    trace.segments = _segments(rng, 80, cores)
    trace.events = _plane(rng, "plane", 150)
    ends = {s.end for s in trace.segments}
    assert any(e.time in ends for e in trace.events)
    assert _cut_segments(trace) > 0
    if cores > 1:
        assert any(
            b.end < a.end for a, b in zip(trace.segments, trace.segments[1:])
        )

    recorders = [_Recorder(), _Recorder()]
    report = run_monitors(trace, recorders, horizon=99.0)
    expected = _feed_oracle(trace, 99.0)
    assert recorders[0].calls == expected
    assert recorders[1].calls == expected
    assert all(r.report is report for r in recorders)


def test_run_monitors_feeds_a_merged_trace_in_order(tmp_path):
    """``run_monitors`` over the merged planes and the gateway's online
    sweep feed a monitor the same calls, indices included."""
    rng = random.Random(7)
    gateway = _seed_gateway(rng, tmp_path, 2, sizes=(80, 40, 200, 100))
    merged = ExecutionTrace()
    merged.events = _gateway_oracle(gateway)
    assert _out_of_order(merged.events) == 0
    recorder = _Recorder()
    run_monitors(merged, [recorder])
    assert recorder.calls == _feed_oracle(merged, merged.makespan)

    online = _Recorder()
    _flush_in_steps(gateway, rng, [online]).finish(merged.makespan)
    assert online.calls == recorder.calls


# -- the records -------------------------------------------------------------


RECORDS = (
    TraceEvent(1.5, TraceEventKind.RELEASE, "r1", "hard deadline=3"),
    TraceEvent(0.0, TraceEventKind.INGEST, "r2"),
    Segment(0.25, 2.5, "DS", "h1", 1),
    Segment(3.0, 4.0, "T1"),
)


@pytest.mark.parametrize(
    "record", RECORDS,
    ids=["event", "event-no-detail", "segment-on-core", "segment"],
)
def test_records_survive_pickle_copy_replace_and_hash(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and hash(clone) == hash(record)
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert clone == record and hash(clone) == hash(record)
    assert dataclasses.replace(record) == record
    assert len({record, copy.copy(record)}) == 1
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, 9.0)


def test_replace_still_validates():
    event = TraceEvent(1.0, TraceEventKind.RELEASE, "r1")
    moved = dataclasses.replace(event, time=2.0)
    assert (moved.time, moved.kind, moved.subject) == (2.0, event.kind, "r1")
    with pytest.raises(ValueError):
        dataclasses.replace(event, time=-1.0)
    segment = Segment(1.0, 2.0, "T1")
    assert dataclasses.replace(segment, end=3.0).duration == 2.0
    with pytest.raises(ValueError):
        dataclasses.replace(segment, end=0.5)

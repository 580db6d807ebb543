"""Execution traces: the temporal diagrams RTSS displays.

A trace is a list of processor *segments* (who ran, from when to when)
plus a list of point *events* (releases, completions, interruptions,
capacity replenishments...).  Both the simulator arm and the emulated-RTSJ
execution arm emit this format, so the Gantt renderer and the metrics
module work identically on either.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TypeVar

__all__ = [
    "TraceEventKind",
    "TraceEvent",
    "Segment",
    "ExecutionTrace",
    "CheckOnlyTrace",
    "in_time_order",
    "merge_in_time_order",
]

_EPS = 1e-9
_T = TypeVar("_T")


class TraceEventKind(enum.Enum):
    """Point events recorded on the timeline."""

    RELEASE = "release"
    START = "start"
    COMPLETION = "completion"
    PREEMPTION = "preemption"
    RESUME = "resume"
    DEADLINE_MISS = "deadline_miss"
    INTERRUPT = "interrupt"          # Timed budget overrun (exec arm)
    ABORT = "abort"                  # D-OVER abandonment
    REPLENISH = "replenish"          # server capacity refill
    CAPACITY_EXHAUSTED = "capacity_exhausted"
    SERVER_SUSPEND = "server_suspend"
    TIMER_FIRE = "timer_fire"
    OVERHEAD = "overhead"            # runtime overhead charged (exec arm)
    OVERRUN = "overrun"              # cost-overrun enforcement fired
    FAULT = "fault"                  # injected fault (drop, burst, delay)
    WATCHDOG = "watchdog"            # deadline-miss watchdog tripped
    MIGRATION = "migration"          # entity moved between cores (SMP)
    SHED = "shed"                    # overload: a release was shed
    BREAKER_OPEN = "breaker_open"    # circuit breaker tripped open
    BREAKER_CLOSE = "breaker_close"  # circuit breaker recovered (closed)
    MODE_CHANGE = "mode_change"      # overload detector switched modes
    VIOLATION = "violation"          # a verification monitor fired
    RECONCILE = "reconcile"          # twin matched an actual execution event
    DIVERGENCE = "divergence"        # twin/actual divergence detected
    REPLAN = "replan"                # the service repaired its schedule
    SHARD_DOWN = "shard_down"        # supervisor declared a shard dead
    SHARD_RESTORED = "shard_restored"  # shard restored from checkpoint
    FAILOVER = "failover"            # a source rerouted to a sibling shard
    INGEST = "ingest"                # gateway accepted a frame off the wire
    RESPONSE = "response"            # gateway wrote a decision frame back
    CLOCK_PAUSE = "clock_pause"      # wall-clock stall/blackout detected
    GATEWAY_RESTORED = "gateway_restored"  # gateway replayed its journal


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One point event: (time, kind, subject, free-form detail)."""

    time: float
    kind: TraceEventKind
    subject: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.time < -_EPS:
            raise ValueError(f"event time must be >= 0, got {self.time}")


@dataclass(frozen=True, slots=True)
class Segment:
    """A half-open processor interval [start, end) executed by ``entity``.

    ``job`` identifies the particular activation when relevant (e.g. which
    aperiodic handler the server was running during the interval).
    ``core`` is the processor that executed the interval; ``None`` (the
    default, and the only value the uniprocessor kernel emits) means "the
    single processor", so single-core traces are unchanged by the SMP
    extension.
    """

    start: float
    end: float
    entity: str
    job: str | None = None
    core: int | None = None

    def __post_init__(self) -> None:
        if self.end < self.start - _EPS:
            raise ValueError(f"segment ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start


_event_time = operator.attrgetter("time")
_first = operator.itemgetter(0)


def in_time_order(
    items: Sequence[_T], key: Callable[[_T], float] = _event_time,
) -> Iterator[tuple[float, int, _T]]:
    """``(key(item), index, item)`` for each of ``items``, in key order.

    Equal keys keep their index order.  A sequence already in order is
    walked in place; any other is visited through a sorted list of its
    indices.  Neither copies a record.
    """
    later, earlier = itertools.tee(map(key, items))
    next(later, None)
    if not any(map(operator.lt, later, earlier)):
        return zip(map(key, items), itertools.count(), items)
    order = sorted(range(len(items)), key=lambda index: key(items[index]))
    return ((key(items[index]), index, items[index]) for index in order)


def merge_in_time_order(
    planes: Iterable[Iterable[tuple[float, int, _T]]],
) -> Iterator[tuple[float, int, _T]]:
    """Merge :func:`in_time_order` streams into one, lazily, by key.

    At equal keys the earlier plane comes first, then index order, so
    the result is the order of sorting every record by ``(key, plane,
    index)``, without building that list.
    """
    return heapq.merge(*planes, key=_first)


class ExecutionTrace:
    """Accumulates segments and events during a run."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self.events: list[TraceEvent] = []

    def add_segment(self, start: float, end: float, entity: str,
                    job: str | None = None, core: int | None = None) -> None:
        """Record a processor interval; zero-length intervals are dropped,
        and an interval contiguous with the previous one for the same
        entity/job/core is merged into it."""
        if end - start <= _EPS:
            return
        for offset in range(len(self.segments), 0, -1):
            last = self.segments[offset - 1]
            if last.core != core:
                # SMP interleaves cores: look past other cores' segments,
                # but only while they overlap the merge candidate
                if core is not None and last.end >= start - _EPS:
                    continue
                break
            if (
                last.entity == entity
                and last.job == job
                and abs(last.end - start) <= _EPS
            ):
                self.segments[offset - 1] = Segment(
                    last.start, end, entity, job, core
                )
                return
            break
        self.segments.append(Segment(start, end, entity, job, core))

    def add_event(self, time: float, kind: TraceEventKind, subject: str,
                  detail: str = "") -> None:
        """Record a point event."""
        self.events.append(TraceEvent(time, kind, subject, detail))

    # -- queries -----------------------------------------------------------

    def segments_of(self, entity: str) -> list[Segment]:
        """All segments executed by ``entity``, in time order."""
        return [s for s in self.segments if s.entity == entity]

    def segments_of_job(self, job: str) -> list[Segment]:
        """All segments attributed to a particular job."""
        return [s for s in self.segments if s.job == job]

    def events_of(self, kind: TraceEventKind,
                  subject: str | None = None) -> list[TraceEvent]:
        """All events of ``kind`` (optionally filtered by subject)."""
        return [
            e for e in self.events
            if e.kind is kind and (subject is None or e.subject == subject)
        ]

    def busy_time(self, entity: str | None = None) -> float:
        """Total processor time consumed (by one entity, or overall)."""
        return sum(
            s.duration for s in self.segments
            if entity is None or s.entity == entity
        )

    @property
    def makespan(self) -> float:
        """Latest time touched by any segment or event."""
        seg_end = max((s.end for s in self.segments), default=0.0)
        evt_end = max((e.time for e in self.events), default=0.0)
        return max(seg_end, evt_end)

    def validate(self) -> None:
        """Check the processor invariant: segments never overlap per core.

        Segments with ``core=None`` all share the single processor; on a
        multicore trace the invariant holds independently on every core.
        """
        by_core: dict[int | None, list[Segment]] = {}
        for segment in self.segments:
            by_core.setdefault(segment.core, []).append(segment)
        for segments in by_core.values():
            ordered = sorted(segments, key=lambda s: (s.start, s.end))
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end - _EPS:
                    raise AssertionError(f"overlapping segments: {a} / {b}")

    @property
    def cores(self) -> list[int]:
        """Distinct core ids touched by segments (empty when uniprocessor)."""
        return sorted({s.core for s in self.segments if s.core is not None})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ExecutionTrace {len(self.segments)} segments, "
            f"{len(self.events)} events, makespan={self.makespan:.3f}>"
        )


class CheckOnlyTrace(ExecutionTrace):
    """A uniprocessor trace that stores nothing and checks as it goes.

    For runs that keep only their job records, such as the paper
    campaign's.  Segments pass through :class:`ExecutionTrace`'s drop
    and merge rules, which on one core only ever merge into the latest
    segment, so only the latest one is kept.  A segment that starts
    before that one ends raises at once with the message
    :meth:`ExecutionTrace.validate` gives.  On a stream arriving in start
    order, the order both uniprocessor kernels emit, that is when
    ``validate()`` would raise at the end of the run.  The one exception
    is two segments starting at the same instant, the later one within a
    rounding step of EPS long: ``validate()`` can miss that overlap, and
    this check reports it.  Events are checked for a non-negative time
    and dropped.  ``segments`` and ``events`` always read empty.

    Selected with ``trace_mode="check"`` on
    :func:`repro.experiments.campaign.simulate_system` and
    :func:`~repro.experiments.campaign.execute_system`.
    """

    segments: tuple[Segment, ...] = ()  # type: ignore[assignment]
    events: tuple[TraceEvent, ...] = ()  # type: ignore[assignment]

    def __init__(self) -> None:
        # deliberately no super().__init__(): nothing is stored; an end
        # at -inf means "no segment yet" and never merges or overlaps
        self._start = self._end = -math.inf
        self._entity: str | None = None
        self._job: str | None = None

    def add_segment(self, start: float, end: float, entity: str,
                    job: str | None = None, core: int | None = None) -> None:
        if core is not None:
            raise ValueError("CheckOnlyTrace is uniprocessor: core must be None")
        if end - start <= _EPS:
            return
        last_end = self._end
        if (
            -_EPS <= last_end - start <= _EPS
            and self._entity == entity
            and self._job == job
        ):
            self._end = end
            return
        if start < last_end - _EPS:
            previous = Segment(self._start, last_end, self._entity, self._job)
            raise AssertionError(
                "overlapping segments: "
                f"{previous} / {Segment(start, end, entity, job)}"
            )
        self._start = start
        self._end = end
        self._entity = entity
        self._job = job

    def add_event(self, time: float, kind: TraceEventKind, subject: str,
                  detail: str = "") -> None:
        if time < -_EPS:
            # same contract the TraceEvent constructor enforces
            raise ValueError(f"event time must be >= 0, got {time}")

    def validate(self) -> None:
        """Nothing left to check: every segment was checked on arrival."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<CheckOnlyTrace>"

"""Invariant monitors swept over a finished execution trace.

A :class:`TraceMonitor` watches one run through :func:`run_monitors`,
which replays the stored trace after the run, and records structured
:class:`~repro.verify.violations.Violation` records instead of raising.
Both it and a serving gateway, which feeds its planes while it serves,
drive the monitors through one :class:`Sweep`.

The monitors exploit a kernel guarantee: executed slices never span an
event instant (the engines bound every slice at the next timed
callback), so the pending set derived from RELEASE/terminal events is
constant inside any slice.  The trace merges contiguous slices into one
segment, and :func:`run_monitors` cuts each segment back at the event
instants inside it.  That turns scheduling-legality checks
(fixed-priority, EDF, D-OVER) into interval arithmetic over the
release/terminal windows and the executed slices, no kernel
introspection required.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
from collections.abc import Iterable

from ..sim.trace import (
    ExecutionTrace,
    Segment,
    TraceEvent,
    TraceEventKind,
    in_time_order,
    merge_in_time_order,
)
from .violations import VerificationReport

__all__ = [
    "TraceMonitor",
    "Sweep",
    "run_monitors",
    "stamp_violations",
    "NonOverlapMonitor",
    "MonotoneClockMonitor",
    "FixedPriorityMonitor",
    "EDFOrderMonitor",
    "DOverLegalityMonitor",
    "ServerCapacityMonitor",
    "ReleaseAccountingMonitor",
    "BreakerMonitor",
]

_EPS = 1e-9
#: default slack before an interval of illegal behaviour is reported
_TOL = 1e-6

#: event kinds that end a job's pending window
_TERMINAL_KINDS = (
    TraceEventKind.COMPLETION,
    TraceEventKind.ABORT,
    TraceEventKind.SHED,
)

_segment_end = operator.attrgetter("end")

_CAPACITY_RE = re.compile(r"capacity=([-+0-9.eE]+)")
_BREAKER_SHED_RE = re.compile(r"breaker open \((.+)\)")


# -- interval arithmetic -----------------------------------------------------


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of half-open intervals, sorted and coalesced."""
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end + _EPS:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged

def _clip(intervals: list[tuple[float, float]],
          lo: float, hi: float) -> list[tuple[float, float]]:
    """Intersect a merged interval list with the window [lo, hi)."""
    out = []
    for start, end in intervals:
        s, e = max(start, lo), min(end, hi)
        if e - s > _EPS:
            out.append((s, e))
    return out


def _subtract(intervals: list[tuple[float, float]],
              holes: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Set difference of two merged interval lists."""
    out = []
    for start, end in intervals:
        cursor = start
        for hole_start, hole_end in holes:
            if hole_end <= cursor + _EPS:
                continue
            if hole_start >= end - _EPS:
                break
            if hole_start > cursor + _EPS:
                out.append((cursor, min(hole_start, end)))
            cursor = max(cursor, hole_end)
            if cursor >= end - _EPS:
                break
        if end - cursor > _EPS:
            out.append((cursor, end))
    return out


def _total(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


# -- monitor protocol --------------------------------------------------------


class TraceMonitor:
    """Base class: bind to a report/trace, then observe the sweep.

    A :class:`Sweep` feeds the run in time order.  ``on_event`` sees
    every point event of the kinds in ``kinds`` (``index`` is the
    witness coordinate: its position in ``trace.events`` after the run,
    its position in the merged feed online); ``on_slice`` sees every
    executed processor slice, a stored segment cut at the event
    instants inside it; ``finish`` runs once at the end, with the
    horizon.  A check of the recorded order reads ``self.trace`` in
    ``finish``.
    """

    name = "monitor"
    #: the event kinds ``on_event`` reads; ``None`` means every kind
    kinds: frozenset[TraceEventKind] | None = None

    def __init__(self) -> None:
        self.report: VerificationReport = VerificationReport()
        self.trace: ExecutionTrace | None = None

    def bind(self, report: VerificationReport, trace: ExecutionTrace) -> None:
        self.report = report
        self.trace = trace

    def on_event(self, index: int, event: TraceEvent) -> None:
        """One point event was recorded."""

    def on_slice(self, start: float, end: float, entity: str,
                 job: str | None, core: int | None) -> None:
        """One processor slice was executed."""

    def finish(self, horizon: float) -> None:
        """The run ended; emit any accumulated verdicts."""


def _slices(trace: ExecutionTrace) -> list[Segment]:
    """The stored segments, each cut at every distinct event time
    strictly inside it (within ``_EPS``).

    :meth:`ExecutionTrace.add_segment` merges a slice into its
    contiguous predecessor, so one segment can span an event instant,
    such as a Deferrable Server that runs straight through its
    replenishment.  The kernels bound every slice at the next event, so
    no piece spans an event instant, as no executed slice does.  A trace
    without segments (an admission timeline) is returned as it is,
    without collecting its event times.
    """
    if not trace.segments:
        return trace.segments
    instants = sorted({event.time for event in trace.events})
    slices: list[Segment] = []
    for segment in trace.segments:
        start, end = segment.start, segment.end
        first = bisect.bisect_right(instants, start + _EPS)
        last = bisect.bisect_left(instants, end - _EPS, first)
        if first == last:
            slices.append(segment)
            continue
        for cut in instants[first:last]:
            if cut - start > _EPS:
                slices.append(Segment(start, cut, segment.entity,
                                      segment.job, segment.core))
                start = cut
        slices.append(Segment(start, end, segment.entity, segment.job,
                              segment.core))
    return slices


class Sweep:
    """Monitors bound to one report, fed in time order as records come.

    :func:`run_monitors` is its one-shot use over a finished trace.  A
    serving gateway keeps one open and feeds it its merged planes batch
    by batch (:meth:`feed`), so ``fed``, the number of events fed so
    far, is the running index that serves as their witness coordinate.
    An event goes only to the monitors whose ``kinds`` read its kind,
    in the monitors' order; every slice goes to every monitor.
    """

    def __init__(self, monitors: list[TraceMonitor],
                 trace: ExecutionTrace | None = None) -> None:
        self.report = VerificationReport()
        self.monitors = list(monitors)
        for monitor in self.monitors:
            monitor.bind(self.report, trace)
        self.fed = 0
        #: kind value -> the monitors that read it (an Enum member
        #: hashes in Python, its value string in C)
        self._readers = {
            kind._value_: tuple(
                monitor for monitor in self.monitors
                if monitor.kinds is None or kind in monitor.kinds
            )
            for kind in TraceEventKind
        }

    def event(self, index: int, event: TraceEvent) -> None:
        for monitor in self._readers[event.kind._value_]:
            monitor.on_event(index, event)

    def slice(self, segment: Segment) -> None:
        for monitor in self.monitors:
            monitor.on_slice(segment.start, segment.end, segment.entity,
                             segment.job, segment.core)

    def feed(self, events: Iterable[TraceEvent]) -> None:
        """Feed events in the order given, numbering them on from
        ``fed``."""
        readers, index = self._readers, self.fed
        for event in events:
            for monitor in readers[event.kind._value_]:
                monitor.on_event(index, event)
            index += 1
        self.fed = index

    def finish(self, horizon: float) -> VerificationReport:
        """Close every monitor's books at ``horizon``."""
        for monitor in self.monitors:
            monitor.finish(horizon)
        return self.report


def run_monitors(trace: ExecutionTrace, monitors: list[TraceMonitor],
                 horizon: float | None = None) -> VerificationReport:
    """Sweep a finished trace through monitors.

    Slices and events are fed in time order: a slice is observed when
    it *ends*, and at equal timestamps slices (keyed by their end) come
    before events (keyed by their time).  The slices are the stored
    segments cut at the event instants inside them (see
    :func:`_slices`); the events are merged in place, without a copy,
    each with its position in ``trace.events``.
    """
    sweep = Sweep(monitors, trace)
    feed = merge_in_time_order((
        in_time_order(_slices(trace), _segment_end),
        in_time_order(trace.events),
    ))
    for _, index, item in feed:
        if isinstance(item, Segment):
            sweep.slice(item)
        else:
            sweep.event(index, item)  # type: ignore[arg-type]
    return sweep.finish(
        horizon if horizon is not None else trace.makespan
    )


def stamp_violations(trace: ExecutionTrace,
                     report: VerificationReport) -> None:
    """Record each violation on the trace as a VIOLATION point event, so
    the failing window shows up on the Gantt renderings."""
    for violation in report.violations:
        trace.add_event(
            max(violation.time, 0.0), TraceEventKind.VIOLATION,
            violation.entities[0] if violation.entities else violation.kind,
            str(violation),
        )


# -- sanitizer family --------------------------------------------------------


class NonOverlapMonitor(TraceMonitor):
    """Per-core execution exclusivity, as a report instead of an assert.

    Works off the stored segments at :meth:`finish`, ordered per core by
    their start.
    """

    name = "non-overlap"
    kinds = frozenset()

    def finish(self, horizon: float) -> None:
        assert self.trace is not None
        by_core: dict[int | None, list[Segment]] = {}
        for segment in self.trace.segments:
            by_core.setdefault(segment.core, []).append(segment)
        for segments in by_core.values():
            ordered = sorted(segments, key=lambda s: (s.start, s.end))
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end - _TOL:
                    self.report.record(
                        "overlap", b.start, (a.entity, b.entity),
                        f"[{a.start:g},{a.end:g}) overlaps "
                        f"[{b.start:g},{b.end:g}) on core {a.core}",
                    )


class MonotoneClockMonitor(TraceMonitor):
    """Point events must be recorded in non-decreasing time order.

    The sweep visits events in time order, so :meth:`finish` walks the
    stored events in recorded order, the way :class:`NonOverlapMonitor`
    reads the stored segments.  VIOLATION events are skipped: an earlier
    sweep stamped them after the run, at their violations' times.
    """

    name = "monotone-clock"
    kinds = frozenset()

    def __init__(self, tol: float = _TOL) -> None:
        super().__init__()
        self.tol = tol

    def finish(self, horizon: float) -> None:
        assert self.trace is not None
        last, last_subject = -math.inf, ""
        for index, event in enumerate(self.trace.events):
            if event.kind is TraceEventKind.VIOLATION:
                continue
            if event.time < last - self.tol:
                self.report.record(
                    "clock-skew", event.time, (last_subject, event.subject),
                    f"{event.kind.value} at {event.time:g} after an event "
                    f"at {last:g}", witness=(index,),
                )
            last = max(last, event.time)
            last_subject = event.subject


# -- scheduling-order family -------------------------------------------------


class _PendingTracker(TraceMonitor):
    """Shared bookkeeping: job pending windows and executed intervals.

    ``owner_of(job_name)`` maps a job label to its checked entity (or
    ``None`` to ignore the job).  Pending windows run from the RELEASE
    event to the first terminal (COMPLETION / ABORT / SHED / a FAULT
    that sheds the release), or to the horizon.
    """

    def __init__(self) -> None:
        super().__init__()
        #: job -> (entity, release time)
        self._release: dict[str, tuple[str, float]] = {}
        #: job -> first terminal time
        self._terminal: dict[str, float] = {}
        #: (entity, job) -> executed slices
        self._executed: dict[tuple[str, str | None], list[tuple[float, float]]] = {}
        #: entity -> executed slices with cores, in feed order
        self._slices: dict[str, list[tuple[float, float, int | None, str | None]]] = {}

    def owner_of(self, job_name: str) -> str | None:
        raise NotImplementedError

    def on_event(self, index: int, event: TraceEvent) -> None:
        owner = self.owner_of(event.subject)
        if owner is None:
            return
        if event.kind is TraceEventKind.RELEASE:
            self._release.setdefault(event.subject, (owner, event.time))
        elif event.kind in _TERMINAL_KINDS or (
            event.kind is TraceEventKind.FAULT and "shed" in event.detail
        ):
            self._terminal.setdefault(event.subject, event.time)

    def on_slice(self, start: float, end: float, entity: str,
                 job: str | None, core: int | None) -> None:
        if job is not None and self.owner_of(job) is not None:
            self._executed.setdefault((entity, job), []).append((start, end))
        self._slices.setdefault(entity, []).append((start, end, core, job))

    def pending_window(self, job_name: str,
                       horizon: float) -> tuple[float, float] | None:
        info = self._release.get(job_name)
        if info is None:
            return None
        release = info[1]
        terminal = self._terminal.get(job_name, horizon)
        if terminal - release <= _EPS:
            return None
        return (release, terminal)

    def executed(self, entity: str,
                 job: str | None = None) -> list[tuple[float, float]]:
        if job is not None:
            return _merge(self._executed.get((entity, job), []))
        return _merge([
            (s, e) for (s, e, _c, _j) in self._slices.get(entity, [])
        ])


class FixedPriorityMonitor(_PendingTracker):
    """No runnable higher-priority task while a lower-priority one runs.

    ``priorities`` maps checked entity names to fixed priorities
    (larger = more urgent); job labels of the form ``"<entity>#<k>"``
    attach to their entity.  ``core_of`` scopes the check per core
    (partitioned scheduling); without it, on an *m*-core global-FP trace
    a waiting higher-priority entity is illegal on any core (top-*m*
    selection), so one scope covers both kernels.
    """

    name = "fixed-priority"

    def __init__(self, priorities: dict[str, int],
                 core_of: dict[str, int] | None = None,
                 tol: float = _TOL) -> None:
        super().__init__()
        self.priorities = dict(priorities)
        self.core_of = dict(core_of) if core_of is not None else None
        self.tol = tol

    def owner_of(self, job_name: str) -> str | None:
        entity = job_name.split("#", 1)[0]
        return entity if entity in self.priorities else None

    def _in_scope(self, a: str, b: str) -> bool:
        if self.core_of is None:
            return True
        return self.core_of.get(a) == self.core_of.get(b)

    def _waiting(self, entity: str, lo: float, hi: float,
                 horizon: float) -> list[tuple[float, float]]:
        """Sub-intervals of [lo, hi) where ``entity`` had a pending job
        but was not executing anywhere."""
        windows = []
        for job, (owner, _release) in self._release.items():
            if owner != entity:
                continue
            window = self.pending_window(job, horizon)
            if window is not None:
                windows.append(window)
        pending = _clip(_merge(windows), lo, hi)
        if not pending:
            return []
        return _subtract(pending, self.executed(entity))

    def finish(self, horizon: float) -> None:
        reported: set[tuple[str, str]] = set()
        for low, slices in self._slices.items():
            low_priority = self.priorities.get(low)
            if low_priority is None:
                continue
            rivals = [
                name for name, priority in self.priorities.items()
                if priority > low_priority and self._in_scope(name, low)
            ]
            if not rivals:
                continue
            for start, end, _core, _job in slices:
                for high in rivals:
                    if (low, high) in reported:
                        continue
                    starved = self._waiting(high, start, end, horizon)
                    if _total(starved) > self.tol:
                        self.report.record(
                            "fp-inversion", starved[0][0], (low, high),
                            f"{low} (priority {low_priority}) ran "
                            f"[{start:g},{end:g}) while {high} (priority "
                            f"{self.priorities[high]}) waited",
                        )
                        reported.add((low, high))


class EDFOrderMonitor(_PendingTracker):
    """No job executes while an earlier-deadline job waits unserved.

    ``relative_deadlines`` maps checked entities to their relative
    deadlines; a job ``"<entity>#<k>"`` released at *r* carries absolute
    deadline *r + D*.  The check is job-granular: during a slice
    attributed to job *x*, any checked job *y* in scope with
    ``deadline(y) < deadline(x) - tol`` that is pending and not
    executing anywhere is a violation (on global EDF, top-*m* selection
    makes this core-independent, like the FP case).
    """

    name = "edf-order"

    def __init__(self, relative_deadlines: dict[str, float],
                 core_of: dict[str, int] | None = None,
                 tol: float = _TOL) -> None:
        super().__init__()
        self.relative_deadlines = dict(relative_deadlines)
        self.core_of = dict(core_of) if core_of is not None else None
        self.tol = tol

    def owner_of(self, job_name: str) -> str | None:
        entity = job_name.split("#", 1)[0]
        return entity if entity in self.relative_deadlines else None

    def _deadline(self, job_name: str) -> float:
        owner, release = self._release[job_name]
        return release + self.relative_deadlines[owner]

    def _in_scope(self, a: str, b: str) -> bool:
        if self.core_of is None:
            return True
        return self.core_of.get(a) == self.core_of.get(b)

    def finish(self, horizon: float) -> None:
        reported: set[tuple[str, str]] = set()
        jobs = list(self._release)
        for entity, slices in self._slices.items():
            for start, end, _core, job in slices:
                if job is None or self.owner_of(job) is None:
                    continue
                own_deadline = self._deadline(job)
                for rival in jobs:
                    if rival == job or (job, rival) in reported:
                        continue
                    rival_owner = self._release[rival][0]
                    if not self._in_scope(rival_owner, entity):
                        continue
                    if self._deadline(rival) >= own_deadline - self.tol:
                        continue
                    window = self.pending_window(rival, horizon)
                    if window is None:
                        continue
                    waiting = _subtract(
                        _clip([window], start, end),
                        self.executed(rival_owner),
                    )
                    if _total(waiting) > self.tol:
                        self.report.record(
                            "edf-inversion", waiting[0][0], (job, rival),
                            f"{job} (d={own_deadline:g}) ran "
                            f"[{start:g},{end:g}) while {rival} "
                            f"(d={self._deadline(rival):g}) waited",
                        )
                        reported.add((job, rival))


class DOverLegalityMonitor(_PendingTracker):
    """Legality of a D-OVER run (Koren & Shasha's firm-deadline MAX).

    ``jobs`` maps job names to ``(release, cost, deadline)``.  Checks:
    no execution outside a job's [release, deadline] window or after its
    terminal, completed jobs received their full demand by the deadline,
    and EDF ordering among pending jobs — with the latest-start-time
    exception: a job dispatched at zero laxity legally outranks earlier
    deadlines, so a slice whose job had laxity ≈ 0 when it started is
    exempt.
    """

    name = "dover-legality"

    def __init__(self, jobs: dict[str, tuple[float, float, float]],
                 tol: float = _TOL) -> None:
        super().__init__()
        self.jobs = dict(jobs)
        self.tol = tol

    def owner_of(self, job_name: str) -> str | None:
        return "dover" if job_name in self.jobs else None

    def _laxity(self, job: str, at: float) -> float:
        release, cost, deadline = self.jobs[job]
        done = _total(_clip(self.executed("dover", job), release, at))
        return deadline - at - (cost - done)

    def finish(self, horizon: float) -> None:
        for job, (release, cost, deadline) in self.jobs.items():
            executed = self.executed("dover", job)
            outside = _subtract(executed, [(release, deadline + self.tol)])
            if _total(outside) > self.tol:
                self.report.record(
                    "dover-window", outside[0][0], (job,),
                    f"executed outside [{release:g},{deadline:g}]",
                )
            terminal = self._terminal.get(job)
            if terminal is not None:
                late = _subtract(executed, [(-math.inf, terminal + self.tol)])
                if _total(late) > self.tol:
                    self.report.record(
                        "exec-after-terminal", late[0][0], (job,),
                        f"executed after terminal at {terminal:g}",
                    )
            completions = (
                self.trace.events_of(TraceEventKind.COMPLETION, job)
                if self.trace is not None else []
            )
            if completions:
                finish_time = completions[0].time
                if finish_time > deadline + self.tol:
                    self.report.record(
                        "late-completion", finish_time, (job,),
                        f"completed at {finish_time:g}, deadline {deadline:g}",
                    )
                if abs(_total(executed) - cost) > self.tol:
                    self.report.record(
                        "demand-mismatch", finish_time, (job,),
                        f"executed {_total(executed):g} of cost {cost:g}",
                    )
        # EDF order with the zero-laxity exception
        reported: set[tuple[str, str]] = set()
        for start, end, _core, job in self._slices.get("dover", []):
            if job not in self.jobs:
                continue
            if self._laxity(job, start) <= self.tol:
                continue  # privileged: dispatched at its latest start time
            deadline = self.jobs[job][2]
            for rival, (_r, _c, rival_deadline) in self.jobs.items():
                if rival == job or (job, rival) in reported:
                    continue
                if rival_deadline >= deadline - self.tol:
                    continue
                window = self.pending_window(rival, horizon)
                if window is None:
                    continue
                waiting = _subtract(
                    _clip([window], start, end),
                    self.executed("dover", rival),
                )
                if _total(waiting) > self.tol:
                    self.report.record(
                        "dover-order", waiting[0][0], (job, rival),
                        f"{job} (d={deadline:g}, positive laxity) ran "
                        f"while {rival} (d={rival_deadline:g}) waited",
                    )
                    reported.add((job, rival))


# -- server-capacity family --------------------------------------------------


class ServerCapacityMonitor(TraceMonitor):
    """Capacity conservation for the budgeted server families.

    Tracks the server's live budget from the trace alone: REPLENISH
    events carry the absolute post-refill capacity, executed slices
    drain it, a Polling Server's idle suspension forfeits it.  Checks,
    per replenishment window:

    * consumption never exceeds the granted budget (``capacity-overdraw``);
    * no refill exceeds the configured capacity (``over-replenish``) —
      suspended while a MODE_CHANGE has rescaled the budget;
    * Polling/Deferrable refills land on period boundaries
      (``replenish-off-boundary``), optional for drifting-clock arms.

    The default tolerance is looser than the other monitors': REPLENISH
    details carry ``%g``-formatted (6 significant digit) capacities, so
    the reconstructed budget is only accurate to ~1e-5 of its magnitude.
    """

    name = "server-capacity"

    _FAMILIES = ("polling", "deferrable", "sporadic")

    def __init__(self, server: str, capacity: float, period: float,
                 family: str, check_boundary: bool = True,
                 tol: float = 1e-4) -> None:
        super().__init__()
        if family not in self._FAMILIES:
            raise ValueError(
                f"family must be one of {self._FAMILIES}, got {family!r}"
            )
        self.server = server
        self.capacity = capacity
        self.period = period
        self.family = family
        self.check_boundary = check_boundary
        self.tol = tol
        # Polling grants nothing until its first activation; Deferrable
        # and Sporadic start with a full (event-less) budget.
        self._cap = 0.0 if family == "polling" else capacity
        self._rescaled = False

    def on_slice(self, start: float, end: float, entity: str,
                 job: str | None, core: int | None) -> None:
        if entity != self.server:
            return
        self._cap -= end - start
        if self._cap < -self.tol:
            self.report.record(
                "capacity-overdraw", end, (self.server,),
                f"consumed {-self._cap:g} beyond the granted budget "
                f"in the window ending at {end:g}",
            )
            self._cap = 0.0  # re-arm so later windows report independently

    def on_event(self, index: int, event: TraceEvent) -> None:
        if event.kind is TraceEventKind.MODE_CHANGE:
            self._rescaled = True
            return
        if event.subject != self.server:
            return
        if event.kind is TraceEventKind.REPLENISH:
            match = _CAPACITY_RE.search(event.detail)
            if match is None:
                return  # ledger-style servers report differently
            granted = float(match.group(1))
            if not self._rescaled and granted > self.capacity + self.tol:
                self.report.record(
                    "over-replenish", event.time, (self.server,),
                    f"refilled to {granted:g}, configured capacity "
                    f"{self.capacity:g}", witness=(index,),
                )
            if (
                self.check_boundary
                and self.family in ("polling", "deferrable")
                and event.time > self.tol
            ):
                phase = event.time / self.period
                if abs(phase - round(phase)) * self.period > self.tol:
                    self.report.record(
                        "replenish-off-boundary", event.time, (self.server,),
                        f"refill at {event.time:g} is not a multiple of "
                        f"the period {self.period:g}", witness=(index,),
                    )
            self._cap = granted
        elif event.kind is TraceEventKind.SERVER_SUSPEND:
            if self.family == "polling":
                self._cap = 0.0  # PS forfeits remaining budget on idle


# -- accounting family -------------------------------------------------------


class ReleaseAccountingMonitor(_PendingTracker):
    """Every release resolves consistently: at most one terminal, no
    execution after it, and — when per-job costs are known and nothing
    legitimately cuts execution — demand conservation.

    ``costs`` maps job names to their true execution demand.  With
    ``strict_serve=True`` a released job with no terminal by the horizon
    is itself a violation (only sound for workloads known to drain).
    """

    name = "release-accounting"

    def __init__(self, costs: dict[str, float] | None = None,
                 check_demand: bool = True, strict_serve: bool = False,
                 tol: float = _TOL) -> None:
        super().__init__()
        self.costs = dict(costs) if costs is not None else {}
        self.check_demand = check_demand
        self.strict_serve = strict_serve
        self.tol = tol
        #: job -> list of terminal (kind, time, event index)
        self._terminals: dict[str, list[tuple[str, float, int]]] = {}
        self._completed: set[str] = set()

    def owner_of(self, job_name: str) -> str | None:
        return job_name.split("#", 1)[0]

    def on_event(self, index: int, event: TraceEvent) -> None:
        super().on_event(index, event)
        if event.kind in _TERMINAL_KINDS or (
            event.kind is TraceEventKind.FAULT and "shed" in event.detail
        ):
            self._terminals.setdefault(event.subject, []).append(
                (event.kind.value, event.time, index)
            )
            if event.kind is TraceEventKind.COMPLETION:
                self._completed.add(event.subject)

    def _job_executed(self, job: str) -> list[tuple[float, float]]:
        merged = []
        for (_entity, owned_job), slices in self._executed.items():
            if owned_job == job:
                merged.extend(slices)
        return _merge(merged)

    def finish(self, horizon: float) -> None:
        for job, terminals in self._terminals.items():
            if len(terminals) > 1:
                kinds = "+".join(kind for kind, _t, _i in terminals)
                self.report.record(
                    "duplicate-terminal", terminals[1][1], (job,),
                    f"{len(terminals)} terminals ({kinds})",
                    witness=tuple(i for _k, _t, i in terminals),
                )
            executed = self._job_executed(job)
            first_terminal = terminals[0][1]
            late = _subtract(
                executed, [(-math.inf, first_terminal + self.tol)]
            )
            if _total(late) > self.tol:
                self.report.record(
                    "exec-after-terminal", late[0][0], (job,),
                    f"executed after the terminal at {first_terminal:g}",
                )
        for job in set(self._release) | set(self.costs):
            if job not in self.costs or not self.check_demand:
                continue
            cost = self.costs[job]
            executed = _total(self._job_executed(job))
            if executed > cost + self.tol:
                self.report.record(
                    "over-execution", horizon, (job,),
                    f"executed {executed:g} of demand {cost:g}",
                )
            elif job in self._completed and executed < cost - self.tol:
                self.report.record(
                    "under-service", horizon, (job,),
                    f"completed after {executed:g} of demand {cost:g}",
                )
        if self.strict_serve:
            for job in self._release:
                if job not in self._terminals:
                    self.report.record(
                        "unserved-release", horizon, (job,),
                        "released but neither served nor shed by the horizon",
                    )


# -- overload family ---------------------------------------------------------


class BreakerMonitor(TraceMonitor):
    """Circuit-breaker state-machine legality, from the trace alone.

    A BREAKER_CLOSE is only legal after a BREAKER_OPEN (consecutive
    opens are fine: a failed half-open probe re-opens), and a SHED
    attributed to an open breaker is only legal while that breaker has
    actually tripped.
    """

    name = "breaker"
    kinds = frozenset((
        TraceEventKind.BREAKER_OPEN, TraceEventKind.BREAKER_CLOSE,
        TraceEventKind.SHED,
    ))

    def __init__(self) -> None:
        super().__init__()
        self._state: dict[str, str] = {}

    def on_event(self, index: int, event: TraceEvent) -> None:
        if event.kind is TraceEventKind.BREAKER_OPEN:
            self._state[event.subject] = "open"
        elif event.kind is TraceEventKind.BREAKER_CLOSE:
            if self._state.get(event.subject, "closed") != "open":
                self.report.record(
                    "breaker-close-without-open", event.time,
                    (event.subject,),
                    "BREAKER_CLOSE while the breaker was never open",
                    witness=(index,),
                )
            self._state[event.subject] = "closed"
        elif event.kind is TraceEventKind.SHED:
            match = _BREAKER_SHED_RE.search(event.detail)
            if match is None:
                return
            breaker = match.group(1)
            if self._state.get(breaker, "closed") != "open":
                self.report.record(
                    "shed-while-closed", event.time,
                    (event.subject, breaker),
                    f"shed blamed on breaker {breaker!r}, which is closed",
                    witness=(index,),
                )

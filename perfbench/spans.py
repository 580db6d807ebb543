"""Span recorder and the layer wrappers of the benchmark's traced run.

Spans are taken from outside the program: for the traced run each
wrapper below replaces one public function or method of a layer and
records a span around every call, and the original is put back
afterwards.  The program's code is never edited.  A span is
``[name, start_ns, end_ns, parent, op, count]``: ``parent`` is the index
of the span that was open in the same asyncio task (or thread) when
this one began, ``op`` is the id of the benchmark op or gateway request
it belongs to, and ``count`` is an optional size the wrapper read off
the result (trace records).  Spans stay in memory and are written out
when the run ends.

Times come from ``time.monotonic_ns``, which on Linux is
``CLOCK_MONOTONIC`` in every process, so the gateway server's spans and
the client's send/receive stamps share one timeline.

The kernels keep identity-checked fast paths: they compare
``PeriodicTaskEntity.release/consume/on_budget_exhausted`` and
``FixedPriorityPolicy.select/preempts`` against stashed originals and
silently fall back to the slow path when one is replaced.  Wrapping
those would measure a different program, so :func:`install` refuses
them.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

now_ns = time.monotonic_ns


class SpanRecorder:
    """In-memory span store; ``op`` tags spans whose wrapper has no tag."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``module.owner.attr`` (owner may be None)."""

    module: str
    owner: str | None
    attr: str
    span: str
    #: (args, result) -> op id; default: the recorder's current op
    tag: Callable | None = None
    #: result -> record count carried on the span
    count: Callable | None = None


def _trace_records(result) -> int:
    trace = result.trace
    return len(trace.events) + len(trace.segments)


def _op_of_checkpoint(args, result):
    op = args[1]
    request = op.get("request")
    return request["request_id"] if request else op.get("id")


def _request_id(payload) -> str | None:
    """The request id a submit or ticket frame carries, if any."""
    if not isinstance(payload, dict):
        return None
    body = payload.get("request") or payload.get("ticket")
    return body.get("request_id") if isinstance(body, dict) else None


#: the layers of the two in-process workloads (paper campaign and
#: admission storm); every name is looked up by the program at call time
IN_PROCESS_LAYERS = (
    Layer("repro.experiments.campaign", None, "run_campaign",
          "experiments.campaign"),
    Layer("repro.workload.generator", "RandomSystemGenerator", "generate",
          "workload.generate"),
    Layer("repro.experiments.campaign", None, "simulate_system",
          "sim.simulate", count=_trace_records),
    Layer("repro.sim.engine", "Simulation", "run", "sim.kernel"),
    Layer("repro.experiments.campaign", None, "execute_system",
          "rtsj.execute", count=_trace_records),
    Layer("repro.rtsj.vm", "RTSJVirtualMachine", "run", "rtsj.vm"),
    Layer("repro.experiments.campaign", None, "measure_run",
          "metrics.measure"),
    Layer("repro.core.server", None, "measure_run", "metrics.measure"),
    Layer("repro.experiments.campaign", None, "aggregate",
          "metrics.measure"),
    Layer("repro.service.service", "AdmissionService", "submit",
          "service.submit"),
    Layer("repro.service.clock", "VirtualClock", "advance",
          "service.clock"),
    *(Layer("repro.service.planner", "IncrementalPlanner", name,
            "service.repair")
      for name in ("repair", "renegotiate", "degrade", "restore")),
    *(Layer("repro.service.twin", "DigitalTwin", name, "service.twin")
      for name in ("observe_admit", "observe_shed", "observe_replan",
                   "reconcile")),
)

#: the gateway server's layers, installed by ``gateway_server.py``;
#: the framing names are the ones ``repro.gateway.gateway`` imported
SERVER_LAYERS = (
    Layer("repro.service.checkpoint", "CheckpointLog", "append",
          "gateway.journal", tag=_op_of_checkpoint),
    Layer("repro.service.service", "AdmissionService", "submit",
          "service.submit", tag=lambda args, result: args[1].request_id),
    *(Layer("repro.service.twin", "DigitalTwin", name, "service.twin")
      for name in ("observe_admit", "observe_shed", "observe_replan",
                   "reconcile")),
    *(Layer("repro.service.planner", "IncrementalPlanner", name,
            "service.repair")
      for name in ("repair", "renegotiate", "degrade", "restore")),
    Layer("repro.gateway.gateway", None, "read_frame", "gateway.read",
          tag=lambda args, result: _request_id(result)),
    Layer("repro.gateway.protocol", None, "read_raw_frame",
          "gateway.read_wait"),
    Layer("repro.gateway.gateway", None, "parse_request",
          "gateway.framing", tag=lambda args, result: result.request_id),
    Layer("repro.gateway.gateway", None, "ticket_payload",
          "gateway.framing", tag=lambda args, result: args[0].request_id),
    Layer("repro.gateway.gateway", None, "write_frame", "gateway.framing",
          tag=lambda args, result: _request_id(args[1])),
)


def _identity_checked_hooks() -> set[tuple[object, str]]:
    from repro.sim.engine import PeriodicTaskEntity
    from repro.sim.schedulers.fp import FixedPriorityPolicy

    return {
        (PeriodicTaskEntity, "release"),
        (PeriodicTaskEntity, "consume"),
        (PeriodicTaskEntity, "on_budget_exhausted"),
        (FixedPriorityPolicy, "select"),
        (FixedPriorityPolicy, "preempts"),
    }


def _wrap(recorder: SpanRecorder, fn, layer: Layer):
    spans = recorder.spans
    current = recorder._current
    name, tag, count = layer.span, layer.tag, layer.count

    def _finish(span, token, args, result) -> None:
        span[2] = now_ns()
        current.reset(token)
        if tag is not None:
            span[4] = tag(args, result)
        if count is not None:
            span[5] = count(result)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span = [name, now_ns(), 0, current.get(), recorder.op, 0]
            token = current.set(len(spans))
            spans.append(span)
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                span[2] = now_ns()
                current.reset(token)
                raise
            _finish(span, token, args, result)
            return result
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, now_ns(), 0, current.get(), recorder.op, 0]
            token = current.set(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = now_ns()
                current.reset(token)
                raise
            _finish(span, token, args, result)
            return result
    return wrapper


def install(recorder: SpanRecorder, layers) -> Callable[[], None]:
    """Wrap every layer; returns the function that puts them back."""
    forbidden = _identity_checked_hooks()
    undo: list[tuple[object, str, object]] = []
    for layer in layers:
        target = importlib.import_module(layer.module)
        if layer.owner is not None:
            target = getattr(target, layer.owner)
        if (target, layer.attr) in forbidden:
            raise ValueError(
                f"{layer.owner}.{layer.attr} is identity-checked by a "
                "kernel fast path and must not be wrapped"
            )
        original = target.__dict__[layer.attr]
        undo.append((target, layer.attr, original))
        setattr(target, layer.attr, _wrap(recorder, original, layer))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


# -- reductions ------------------------------------------------------------


def _outermost_totals(spans) -> dict[str, int]:
    """name -> summed ns of spans with no same-named ancestor."""
    totals: dict[str, int] = defaultdict(int)
    for name, start, end, parent, _op, _count in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] += end - start
    return totals


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` (sorted by start)."""
    total = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _time_covered_self(spans, name: str) -> int:
    """Summed self ns of ``name`` spans, where a span's children are all
    spans that ran while it was open.

    In one thread that is exact: the other traced layers are
    synchronous (``AdmissionService.submit`` never suspends), so a span
    of another asyncio task that lies inside this one's interval ran
    during one of its awaits.
    """
    others = sorted((s[1], s[2]) for s in spans if s[0] != name)
    starts = [start for start, _end in others]
    total = 0
    for s in spans:
        if s[0] != name:
            continue
        lo = bisect.bisect_left(starts, s[1])
        hi = bisect.bisect_left(starts, s[2])
        inside = [(a, min(b, s[2])) for a, b in others[lo:hi]]
        total += (s[2] - s[1]) - _covered(inside)
    return total


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op layer figures from one traced pass of ``ops`` ops.

    Layers a workload does not reach come out as 0 — the "predicted
    flat" half of the attribution table in ``run.py``.
    """
    totals = _outermost_totals(spans)
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _op, _count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    campaign_self = sum(
        (s[2] - s[1]) - child_ns[i]
        for i, s in enumerate(spans) if s[0] == "experiments.campaign"
    )
    records = defaultdict(int)
    for s in spans:
        records[s[0]] += s[5]
    submits = [s[2] - s[1] for s in spans if s[0] == "service.submit"]
    per_op = 1e6 * max(ops, 1)   # ns totals -> ms per op

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    campaign = totals["experiments.campaign"]
    return {
        "experiments.campaign_ms": campaign / per_op,
        "workload.generate_ms": totals["workload.generate"] / per_op,
        "sim.simulate_ms": totals["sim.simulate"] / per_op,
        "sim.kernel_ms": totals["sim.kernel"] / per_op,
        "sim.records": records["sim.simulate"] / max(ops, 1),
        "sim.ns_per_record": ratio(totals["sim.kernel"],
                                   records["sim.simulate"]),
        "sim.simulate_share": ratio(totals["sim.simulate"], campaign),
        "rtsj.execute_ms": totals["rtsj.execute"] / per_op,
        "rtsj.vm_ms": totals["rtsj.vm"] / per_op,
        "rtsj.wiring_ms": (totals["rtsj.execute"] - totals["rtsj.vm"])
        / per_op,
        "rtsj.records": records["rtsj.execute"] / max(ops, 1),
        "rtsj.ns_per_record": ratio(totals["rtsj.vm"],
                                    records["rtsj.execute"]),
        "rtsj.execute_share": ratio(totals["rtsj.execute"], campaign),
        "metrics.measure_ms": totals["metrics.measure"] / per_op,
        "experiments.self_ms": campaign_self / per_op,
        "service.submit_us_p50": (
            statistics.median(submits) / 1e3 if submits else 0.0
        ),
        "service.submit_ms": totals["service.submit"] / per_op,
        "service.clock_self_ms": _time_covered_self(spans, "service.clock")
        / per_op,
        "service.repair_ms": totals["service.repair"] / per_op,
        "service.twin_ms": totals["service.twin"] / per_op,
    }


#: window attribution priority: a nanosecond covered by several server
#: spans counts for the first of these (a submit's own appends are
#: journal time, not service time)
_WINDOW_LABELS = ("gateway.journal", "service.submit", "gateway.framing")


def gateway_window_metrics(spans, windows: dict[str, tuple[int, int]]
                           ) -> dict[str, float]:
    """Where each request's round trip went, from the server's spans.

    ``windows`` maps request id -> (client send ns, client receive ns).
    The server is one thread, so every nanosecond of a round trip is
    either inside one of its spans — for this request or the other
    connection's — or unattributed: socket transit, event-loop
    wake-ups, the dispatcher hop, the settle discipline, the client.
    ``read_frame`` waits for bytes inside ``read_raw_frame``; only the
    decoding after that wait counts as framing.
    """
    wait_end = {s[3]: s[2] for s in spans if s[0] == "gateway.read_wait"}
    events: list[tuple[int, int, int]] = []
    for index, (name, start, end, _parent, _op, _count) in enumerate(spans):
        if name == "gateway.read":
            start = wait_end.get(index, start)
            label = _WINDOW_LABELS.index("gateway.framing")
        elif name in _WINDOW_LABELS:
            label = _WINDOW_LABELS.index(name)
        else:
            continue
        if end > start:
            events.append((start, 1, label))
            events.append((end, -1, label))
    events.sort()
    # flatten into disjoint (start, end, label) segments
    seg_starts: list[int] = []
    segments: list[tuple[int, int, int]] = []
    active = [0] * len(_WINDOW_LABELS)
    previous = None
    for at, delta, label in events:
        if previous is not None and at > previous:
            top = next((i for i, n in enumerate(active) if n), None)
            if top is not None:
                seg_starts.append(previous)
                segments.append((previous, at, top))
        active[label] += delta
        previous = at
    sums = [0.0] * len(_WINDOW_LABELS)
    round_trip = 0.0
    for send, recv in windows.values():
        round_trip += recv - send
        i = max(bisect.bisect_right(seg_starts, send) - 1, 0)
        while i < len(segments) and segments[i][0] < recv:
            start, end, label = segments[i]
            overlap = min(end, recv) - max(start, send)
            if overlap > 0:
                sums[label] += overlap
            i += 1
    n = 1e6 * max(len(windows), 1)
    journal, service, framing = (value / n for value in sums)
    round_trip /= n
    return {
        "round_trip_ms": round_trip,
        "journal_ms": journal,
        "service_ms": service,
        "framing_ms": framing,
        "unattributed_ms": round_trip - journal - service - framing,
        "journal_share": journal / round_trip if round_trip else 0.0,
    }

"""Gateway-level runtime verification: the ingestion protocol oracle.

:class:`GatewayProtocolMonitor` watches the merged timeline of a
serving :class:`~repro.gateway.gateway.AdmissionGateway`, which feeds it
online: service events plus the gateway plane's ``INGEST`` /
``RESPONSE`` / ``CLOCK_PAUSE`` / ``GATEWAY_RESTORED`` events.  It
enforces the socket edge's contract:

* **every ingested frame is answered, exactly once** — per request id,
  the number of non-edge ``RESPONSE`` events equals the number of
  ``INGEST`` events by the horizon (a crash may defer the answer to the
  restored incarnation's journal replay, never drop it);
* a non-edge ``RESPONSE`` without a prior ``INGEST`` is a fabrication;
* **edge rejections stay at the edge** — a ``RESPONSE`` tagged ``edge``
  must be a retryable ``reject_busy`` (with the pipeline declared full)
  or a ``reject_draining``; nothing else may bypass the journal;
* an ``admit`` response must be backed by a service ``RELEASE`` for the
  same id (no promised admissions the backend never performed);
* **ingest stamps are monotone** — the dispatcher serializes decisions,
  so out-of-order stamps mean the determinism contract is broken.  An
  ``INGEST`` is recorded at its stamp, so its time is the stamp, at
  full precision;
* once the gateway announces draining (``MODE_CHANGE`` with subject
  ``gateway``), no *new* admission is ingested — only frames accepted
  before the drain mark may still decide (they carry earlier stamps).
"""

from __future__ import annotations

import re

from ..sim.trace import TraceEvent, TraceEventKind
from .invariants import TraceMonitor

__all__ = ["GatewayProtocolMonitor"]

_EPS = 1e-9
_DEPTH = re.compile(r"depth=(\d+)/(\d+)")

# members resolved once at import: a serving gateway feeds the monitor
# a few of these per request
_RELEASE = TraceEventKind.RELEASE
_INGEST = TraceEventKind.INGEST
_RESPONSE = TraceEventKind.RESPONSE
_MODE_CHANGE = TraceEventKind.MODE_CHANGE
_CLOCK_PAUSE = TraceEventKind.CLOCK_PAUSE


class GatewayProtocolMonitor(TraceMonitor):
    """Every frame answered once; edge rejections honest; stamps monotone."""

    name = "gateway-protocol"
    kinds = frozenset((
        _RELEASE, _INGEST, _RESPONSE, _MODE_CHANGE, _CLOCK_PAUSE,
    ))

    def __init__(self) -> None:
        super().__init__()
        self._ingests: dict[str, int] = {}
        self._responses: dict[str, int] = {}
        #: ids released before their first answer (in flight only)
        self._released: set[str] = set()
        #: ids first answered ``admit`` with no RELEASE fed yet, in
        #: answer order
        self._unbacked: dict[str, None] = {}
        self._last_stamp: float | None = None
        self._drained_at: float | None = None

    def on_event(self, index: int, event: TraceEvent) -> None:
        kind = event.kind
        if kind is _RELEASE:
            rid = event.subject
            if rid in self._unbacked:
                del self._unbacked[rid]
            elif rid not in self._responses:
                self._released.add(rid)
        elif kind is _INGEST:
            self._on_ingest(index, event)
        elif kind is _RESPONSE:
            self._on_response(index, event)
        elif kind is _MODE_CHANGE:
            if event.subject == "gateway" and "draining" in event.detail:
                self._drained_at = event.time
        elif kind is _CLOCK_PAUSE:
            if event.subject != "clock":
                self.report.record(
                    "malformed-clock-pause", event.time, (event.subject,),
                    "CLOCK_PAUSE must be recorded against the clock",
                    witness=(index,),
                )

    def _on_ingest(self, index: int, event: TraceEvent) -> None:
        rid = event.subject
        self._ingests[rid] = self._ingests.get(rid, 0) + 1
        stamp, last = event.time, self._last_stamp
        if last is None or stamp > last:
            self._last_stamp = stamp
        elif stamp < last - _EPS:
            self.report.record(
                "non-monotone-ingest", stamp, (rid,),
                f"ingest stamp {stamp:.10g} precedes the previous stamp "
                f"{last:.10g} — the dispatcher serialization is broken",
                witness=(index,),
            )
        if self._drained_at is not None and event.time > self._drained_at:
            self.report.record(
                "ingest-after-drain", event.time, (rid,),
                "a frame was ingested after the gateway announced "
                "draining",
                witness=(index,),
            )

    def _on_response(self, index: int, event: TraceEvent) -> None:
        rid = event.subject
        detail = event.detail
        decision = detail.split()[0] if detail else ""
        if " edge" in detail or detail.endswith("edge"):
            if decision not in ("reject_busy", "reject_draining"):
                self.report.record(
                    "illegal-edge-rejection", event.time, (rid,),
                    f"edge response with decision {decision!r} — only "
                    "busy/draining rejections may bypass the journal",
                    witness=(index,),
                )
            if decision == "reject_busy":
                match = _DEPTH.search(detail)
                if match is None or match.group(1) != match.group(2):
                    self.report.record(
                        "busy-below-bound", event.time, (rid,),
                        "REJECT_BUSY issued without the pipeline "
                        "declared full — backpressure fired early",
                        witness=(index,),
                    )
            return
        answered = self._responses.get(rid, 0) + 1
        self._responses[rid] = answered
        if answered == 1:
            released = rid in self._released
            if released:
                self._released.discard(rid)
            elif decision == "admit":
                self._unbacked[rid] = None
        if answered > self._ingests.get(rid, 0):
            self.report.record(
                "response-without-ingest", event.time, (rid,),
                "more responses than ingested frames for this id",
                witness=(index,),
            )

    def finish(self, horizon: float) -> None:
        for rid, count in self._ingests.items():
            answered = self._responses.get(rid, 0)
            if answered != count:
                self.report.record(
                    "unanswered-ingest", horizon, (rid,),
                    f"{count} frame(s) ingested but {answered} answered "
                    "— a frame was dropped without a decision",
                )
        for rid in self._unbacked:
            self.report.record(
                "admit-without-release", horizon, (rid,),
                "the gateway answered admit but the backend never "
                "released the request",
            )

"""Gateway-level runtime verification: the ingestion protocol oracle.

:class:`GatewayProtocolMonitor` replays the merged timeline produced by
:meth:`~repro.gateway.gateway.AdmissionGateway.merged_trace` — service
events plus the gateway plane's ``INGEST`` / ``RESPONSE`` /
``CLOCK_PAUSE`` / ``GATEWAY_RESTORED`` events — and enforces the socket
edge's contract:

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
  so out-of-order stamps mean the determinism contract is broken;
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
_STAMP = re.compile(r"stamp=([-0-9.e+]+)")
_DEPTH = re.compile(r"depth=(\d+)/(\d+)")


class GatewayProtocolMonitor(TraceMonitor):
    """Every frame answered once; edge rejections honest; stamps monotone."""

    name = "gateway-protocol"

    def __init__(self) -> None:
        super().__init__()
        self._ingests: dict[str, int] = {}
        self._responses: dict[str, int] = {}
        #: ids whose first answer was ``admit``, in answer order
        self._answered_admit: list[str] = []
        self._released: set[str] = set()
        self._last_stamp: float | None = None
        self._drained_at: float | None = None

    def on_event(self, index: int, event: TraceEvent) -> None:
        kind = event.kind
        if kind is TraceEventKind.RELEASE:
            self._released.add(event.subject)
        elif kind is TraceEventKind.INGEST:
            self._on_ingest(index, event)
        elif kind is TraceEventKind.RESPONSE:
            self._on_response(index, event)
        elif kind is TraceEventKind.MODE_CHANGE:
            if event.subject == "gateway" and "draining" in event.detail:
                self._drained_at = event.time
        elif kind is TraceEventKind.CLOCK_PAUSE:
            if event.subject != "clock":
                self.report.record(
                    "malformed-clock-pause", event.time, (event.subject,),
                    "CLOCK_PAUSE must be recorded against the clock",
                    witness=(index,),
                )

    def _on_ingest(self, index: int, event: TraceEvent) -> None:
        rid = event.subject
        self._ingests[rid] = self._ingests.get(rid, 0) + 1
        match = _STAMP.search(event.detail)
        if match is None:
            self.report.record(
                "ingest-without-stamp", event.time, (rid,),
                "INGEST carries no stamp= detail — the decision cannot "
                "be anchored for a control replay",
                witness=(index,),
            )
            return
        stamp = float(match.group(1))
        if self._last_stamp is not None and stamp < self._last_stamp - _EPS:
            self.report.record(
                "non-monotone-ingest", event.time, (rid,),
                f"ingest stamp {stamp:g} precedes the previous stamp "
                f"{self._last_stamp:g} — the dispatcher serialization "
                "is broken",
                witness=(index,),
            )
        self._last_stamp = max(
            stamp, self._last_stamp if self._last_stamp is not None else stamp
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
        if answered == 1 and decision == "admit":
            self._answered_admit.append(rid)
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
        for rid in self._answered_admit:
            if rid not in self._released:
                self.report.record(
                    "admit-without-release", horizon, (rid,),
                    "the gateway answered admit but the backend never "
                    "released the request",
                )

"""The wall-clock admission gateway: real network ingestion.

:class:`AdmissionGateway` is an asyncio TCP/Unix-socket front end to
one :class:`~repro.service.AdmissionService`.  A hardened
:class:`~repro.service.WallClock` stamps every request; the service
runs on its own :class:`~repro.service.VirtualClock` scheduler, which
the wall clock drives with one event-loop timer armed for its next
action.  Requests flow through three stages:

* **the edge** — one :class:`asyncio.Protocol` per connection buffers
  bytes and decodes complete frames in the transport's
  ``data_received`` callback: no per-connection task and no stream
  reader.  Pings, protocol errors and the two edge refusals are
  answered right there.  A submit goes into the bounded pipeline
  together with its connection.  Each connection has at most one
  request in flight; later frames wait in its buffer and are answered
  in order, and it stops reading once more than one frame ceiling of
  bytes waits unread.
* **the bounded pipeline** — ``max_in_flight`` deep; overflow surfaces
  as a retryable ``REJECT_BUSY`` instead of unbounded queueing.
* **the single dispatcher** — stamps every request, advances the
  service's scheduler to the stamp, journals and submits, then writes
  the ticket straight to the connection's transport.

Robustness layers:

* **ingress hardening** — every connection is bounded: frame size
  (checked on the header, before a payload is buffered), an idle bound
  while a header is awaited and a read bound while a started payload
  is incomplete (slowloris), both on one timer per connection, and a
  connection cap.  SIGTERM drains gracefully (finish what was
  accepted, explicit drain-cutoff fates); a second signal forces an
  immediate checkpoint-and-exit.
* **clock robustness** — the wall clock is anchored once, monotonic by
  construction, and watched: a stalled loop or suspended process
  registers as a :class:`~repro.service.ClockPause` which the gateway
  feeds into the digital twin as a heartbeat-miss divergence.
* **crash safety** — an at-least-once ingestion journal (same CRC'd
  JSONL discipline as the service checkpoint) records every frame's
  (stamp, request) before submission and the decision after it.  A
  killed gateway restores by replaying the journal against the restored
  service: decided entries re-seed the idempotency cache, undecided
  ones are re-submitted *at their original stamps* — never a double
  admission.
* **determinism under jitter** — all decisions flow through one
  dispatcher, each frame is stamped exactly once, and the service's
  scheduler runs every action due by the stamp before the request is
  submitted at it.  A control run replaying the journal's (stamp,
  request) pairs on a ``VirtualClock`` does the same, and so
  reproduces every admission decision bit-for-bit — the property
  ``run_gateway_soak`` cross-checks.  The service plane is recorded in
  time order.
* **bounded verification state** — the protocol monitors are fed while
  the gateway serves: every ``_FLUSH_BATCH`` recorded events, the
  dispatcher merges the planes up to a watermark no plane can record
  before any more, feeds the merge to one online sweep and drops the
  fed events.  A served gateway keeps the events since the last flush
  and the monitors' per-request state, not its whole history.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path

from repro.service import (
    AdmissionService,
    AdmissionTicket,
    CheckpointLog,
    Decision,
    DrainReport,
    EventRequest,
    IdempotencyCache,
    ServiceConfig,
    VirtualClock,
    WallClock,
)
from repro.service.clock import ClockPause
from repro.sim.trace import ExecutionTrace, TraceEventKind

from .protocol import (
    HEADER_BYTES,
    FrameError,
    FrameTooLarge,
    decode_payload,
    encode_frame,
    error_payload,
    frame_length,
    parse_request,
    # the edge does not call the two stream helpers, but perfbench's
    # span wrappers look them up in this module's namespace
    read_frame,  # noqa: F401
    ticket_payload,
    write_frame,  # noqa: F401
)

__all__ = ["GatewayConfig", "AdmissionGateway", "load_journal",
           "undecided_entries"]

_EPS = 1e-9
#: how far past the last journal/checkpoint stamp a restored gateway's
#: logical timeline resumes
_RESUME_SLACK = 1e-6
#: unfed events on the live planes that make the dispatcher flush them
#: into the online sweep
_FLUSH_BATCH = 512

_time = operator.attrgetter("time")


@dataclass(frozen=True)
class GatewayConfig:
    """Ingress limits and lifecycle knobs of one gateway instance.

    TCP by default (``host``/``port``, port 0 = ephemeral); set
    ``unix_path`` to listen on a Unix socket instead.  All ``*_s``
    knobs are wall seconds; ``watchdog_interval`` and
    ``drain_max_wait`` are logical tu.
    """

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None
    max_frame_bytes: int = 64 * 1024
    #: wall seconds of silence between frames before the peer is dropped
    idle_timeout_s: float = 30.0
    #: wall seconds to deliver a started frame (slowloris bound)
    read_timeout_s: float = 5.0
    max_connections: int = 64
    #: bounded dispatcher pipeline; overflow answers REJECT_BUSY
    max_in_flight: int = 128
    #: clock watchdog sampling interval (tu); gaps beyond 3x interval
    #: record a ClockPause.  At the 1 tu = 1 ms default scale, 100 tu
    #: sampling puts the detection bound at 300 ms — far above ordinary
    #: scheduler jitter, well below a suspended process
    watchdog_interval: float = 100.0
    #: drain cutoff (tu): in-flight work settling later is shed with an
    #: explicit drain-cutoff fate; None settles everything
    drain_max_wait: float | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )


def load_journal(path: Path | str) -> list[dict]:
    """All intact journal ops (CRC-checked, torn tail tolerated)."""
    return CheckpointLog(path).load()


def undecided_entries(ops: list[dict]) -> list[dict]:
    """Ingest ops with no matching decision — the crash's replay debt.

    The dispatcher is serial, so the journal strictly alternates
    ingest/decided per occurrence; pairing is positional per id.
    """
    pending: list[dict] = []
    for op in ops:
        if op.get("op") == "ingest":
            pending.append(op)
        elif op.get("op") == "decided":
            for i, entry in enumerate(pending):
                if entry["request"]["request_id"] == op["id"]:
                    pending.pop(i)
                    break
    return pending


class AdmissionGateway:
    """One listening socket in front of one admission backend."""

    def __init__(
        self,
        config: GatewayConfig,
        service_config: ServiceConfig,
        *,
        clock: WallClock | None = None,
        skew=None,
        seed: int = 0,
        journal_path: Path | str | None = None,
        checkpoint_path: Path | str | None = None,
        _service: AdmissionService | None = None,
    ) -> None:
        self.config = config
        self.service_config = service_config
        self.clock = clock if clock is not None else WallClock()
        self.seed = seed
        if _service is None:
            _service = AdmissionService(
                self.service_config, clock=VirtualClock(self.clock.start),
                skew=skew, seed=seed, checkpoint_path=checkpoint_path,
            )
        self.service = _service
        self.journal: CheckpointLog | None = (
            CheckpointLog(journal_path) if journal_path is not None else None
        )
        self.checkpoint_path = checkpoint_path
        self.trace = ExecutionTrace()       # gateway plane
        self.cache = IdempotencyCache(
            max_entries=self.service_config.idempotency_entries
        )
        #: the unfed tails of dead predecessor incarnations' service and
        #: gateway planes, oldest first (a restore hands them over)
        self.archived_service_traces: list[ExecutionTrace] = []
        self.archived_traces: list[ExecutionTrace] = []
        #: the online sweep, opened at the first flush, and the
        #: watermark it has been fed up to
        self._sweep = None
        self._fed_to = -math.inf
        self._replay_debt: list[dict] = []
        self.server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | str | None = None
        self._pipeline: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._connections: set[_Connection] = set()
        self.terminated: asyncio.Event | None = None
        self.draining = False
        self.killed = False
        self.shutdown_signals = 0
        # counters
        self.ingested = 0
        self.responded = 0
        self.replayed = 0
        self.busy_rejections = 0
        self.draining_rejections = 0
        self.torn_frames = 0
        self.oversized_frames = 0
        self.timeouts = 0
        self.protocol_errors = 0
        self.connections_total = 0
        self.connections_rejected = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "AdmissionGateway":
        """Anchor the clock, replay any journal debt, open the socket."""
        self.clock.anchor()
        self.terminated = asyncio.Event()
        self._pipeline = asyncio.Queue(maxsize=self.config.max_in_flight)
        if self.service._housekeeper is None:
            self.service.start()
        if self.journal is not None and not self.journal.exists():
            self.journal.append({
                "op": "gateway_init", "t": self.clock.now(),
                "scale": self.clock.scale, "seed": self.seed,
            })
        if self._replay_debt:
            self._replay_journal_debt()
        self.clock.drive(self.service.clock, self.clock.now())
        self.clock.on_pause(self._on_clock_pause)
        self.clock.start_watchdog(self.config.watchdog_interval)
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="gateway-dispatcher"
        )
        loop = asyncio.get_running_loop()
        if self.config.unix_path is not None:
            path = Path(self.config.unix_path)
            path.unlink(missing_ok=True)
            self.server = await loop.create_unix_server(
                lambda: _Connection(self), path=str(path)
            )
            self.address = str(path)
        else:
            self.server = await loop.create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )
            sock = self.server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
        return self

    @classmethod
    async def restore(
        cls,
        config: GatewayConfig,
        service_config: ServiceConfig,
        *,
        journal_path: Path | str,
        checkpoint_path: Path | str,
        scale: float = 1e-3,
        skew=None,
        seed: int = 0,
        predecessor: "AdmissionGateway | None" = None,
    ) -> "AdmissionGateway":
        """Rebuild a killed gateway from its journal + checkpoint.

        The logical timeline resumes just past the last stamp either
        log recorded — the crash blackout does not consume logical time
        (it is recorded as a :class:`ClockPause` instead of warping
        in-flight deadlines).  Decided journal entries re-seed the
        idempotency cache; undecided ones are re-submitted at their
        original stamps before the listener reopens, so the restored
        planner state matches a control replay of the same journal.
        """
        ops = load_journal(journal_path)
        last_stamp = max(
            (op.get("t", 0.0) for op in ops), default=service_config.start
        )
        checkpoint_ops = CheckpointLog(checkpoint_path).load()
        last_checkpoint = max(
            (op.get("t", 0.0) for op in checkpoint_ops),
            default=service_config.start,
        )
        resume_at = max(last_stamp, last_checkpoint) + _RESUME_SLACK
        clock = WallClock(scale=scale, start=resume_at).anchor()
        service = AdmissionService.restore(
            checkpoint_path, config=service_config,
            clock=VirtualClock(resume_at), skew=skew,
        )
        gateway = cls(
            config, service_config, clock=clock, seed=seed,
            journal_path=journal_path, checkpoint_path=checkpoint_path,
            _service=service,
        )
        for op in ops:
            if op.get("op") == "decided":
                ticket = AdmissionTicket.from_dict(op["ticket"])
                gateway.cache.put(replace(ticket, duplicate=False))
        gateway._replay_debt = undecided_entries(ops)
        if predecessor is not None:
            # one sweep spans the crash: the predecessor's monitors,
            # report and fed count, and its planes' unfed tails
            gateway._sweep = predecessor._sweep
            gateway._fed_to = predecessor._fed_to
            gateway.archived_service_traces = [
                *predecessor.archived_service_traces,
                predecessor.service.trace,
            ]
            gateway.archived_traces = [
                *predecessor.archived_traces, predecessor.trace,
            ]
        return await gateway.start()

    def _replay_journal_debt(self) -> None:
        debt, self._replay_debt = self._replay_debt, []
        for op in debt:
            stamp = op["t"]
            self.service.clock.advance(stamp)
            # the original client re-learns the fate by retrying
            self._decide_at(
                EventRequest.from_dict(op["request"]), stamp, replayed=True,
            )
            self.replayed += 1
        now = self.clock.now()
        if self.journal is not None:
            self.journal.append({
                "op": "restored", "t": now, "replayed": self.replayed,
            })
        self.trace.add_event(
            now, TraceEventKind.GATEWAY_RESTORED, "gateway",
            detail=f"journal replayed {self.replayed} undecided entr"
                   f"{'y' if self.replayed == 1 else 'ies'}",
        )

    # -- the decision pipeline ---------------------------------------------

    async def _dispatch_loop(self) -> None:
        pipeline = self._pipeline
        assert pipeline is not None
        while True:
            request, connection = await pipeline.get()
            try:
                connection.answer(await self._decide(request))
            except Exception as exc:
                # the client cannot learn this request's fate: drop its
                # connection and report, never fail silently
                asyncio.get_running_loop().call_exception_handler({
                    "message": f"gateway failed to decide or answer "
                               f"{request.request_id!r}",
                    "exception": exc,
                    "protocol": connection,
                })
                connection.close()
            finally:
                pipeline.task_done()

    async def _decide(self, request: EventRequest) -> AdmissionTicket:
        """Stamp the request, run the service's actions due by the
        stamp, submit at the stamp, then re-arm the driven timer and
        flush the planes once a batch of events is unfed."""
        stamp = self.clock.now()
        scheduler = self.service.clock
        scheduler.advance(stamp)
        ticket = self._decide_at(request, stamp)
        self.clock.drive(scheduler, stamp)
        if (
            len(self.service.trace.events) + len(self.trace.events)
            >= _FLUSH_BATCH
        ):
            self._flush(min(scheduler.now(), self.clock.now()))
        return ticket

    def _decide_at(
        self, request: EventRequest, stamp: float, *, replayed: bool = False,
    ) -> AdmissionTicket:
        rid = request.request_id
        self.ingested += 1
        if self.journal is not None and not replayed:
            self.journal.append(
                {"op": "ingest", "t": stamp, "request": request.to_dict()}
            )
        self.trace.add_event(stamp, TraceEventKind.INGEST, rid)
        cached = self.cache.get(rid)
        if cached is not None:
            ticket = replace(cached, duplicate=True)
        else:
            ticket = self.service.submit(request, at=stamp)
            self.cache.put(ticket)
        if self.journal is not None:
            self.journal.append({
                "op": "decided", "t": stamp, "id": rid,
                "ticket": ticket.to_dict(),
            })
        self.trace.add_event(
            stamp, TraceEventKind.RESPONSE, rid,
            detail=ticket.decision.value
                   + (" duplicate" if ticket.duplicate else "")
                   + (" replayed" if replayed else ""),
        )
        self.responded += 1
        return ticket

    # -- the socket edge ---------------------------------------------------

    def _admit_or_reject_at_edge(
        self, request: EventRequest, connection: "_Connection",
    ) -> AdmissionTicket | None:
        """Enqueue into the bounded pipeline, or reject at the edge.

        Returns the edge rejection, or ``None`` once the request is in
        the pipeline.  Edge rejections (draining, pipeline full) never
        reach the journal or the backend — a control replay must not
        see them.
        """
        assert self._pipeline is not None
        if self.draining:
            self.draining_rejections += 1
            now = self.clock.now()
            ticket = AdmissionTicket(
                request.request_id, Decision.REJECT_DRAINING, now,
                detail="gateway draining",
            )
            self.trace.add_event(
                now, TraceEventKind.RESPONSE, request.request_id,
                detail=f"{ticket.decision.value} edge",
            )
            return ticket
        try:
            self._pipeline.put_nowait((request, connection))
        except asyncio.QueueFull:
            self.busy_rejections += 1
            now = self.clock.now()
            bound = self.config.max_in_flight
            ticket = AdmissionTicket(
                request.request_id, Decision.REJECT_BUSY, now,
                detail=f"pipeline full (depth={bound}/{bound}) — "
                       "back off and retry",
            )
            self.trace.add_event(
                now, TraceEventKind.RESPONSE, request.request_id,
                detail=f"{ticket.decision.value} depth={bound}/{bound} edge",
            )
            return ticket
        return None

    # -- clock robustness --------------------------------------------------

    def _on_clock_pause(self, pause: ClockPause) -> None:
        """A stalled loop / suspended process is a real divergence."""
        # what fell due during the stall is recorded first
        self.clock.drive(self.service.clock, pause.at)
        detail = (
            f"loop stalled {pause.observed:g}tu where {pause.expected:g}tu "
            "was expected"
        )
        self.trace.add_event(
            pause.at, TraceEventKind.CLOCK_PAUSE, "clock", detail=detail
        )
        if self.journal is not None:
            self.journal.append({
                "op": "clock_pause", "t": pause.at,
                "expected": pause.expected, "observed": pause.observed,
            })
        self.service.note_clock_pause(pause.at, detail)

    # -- shutdown ----------------------------------------------------------

    def request_shutdown(self) -> None:
        """SIGTERM semantics, idempotent across repeats.

        First call: graceful drain — stop accepting, answer
        ``REJECT_DRAINING`` at the edge, decide everything already in
        the pipeline, then drain the backend (explicit drain-cutoff
        fates).  Second call while draining: force an immediate
        checkpoint-and-exit.  Further calls: no-ops.
        """
        self.shutdown_signals += 1
        if self.killed or (
            self.terminated is not None and self.terminated.is_set()
        ):
            return
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())
        else:
            self.force_exit()

    async def _drain(self) -> DrainReport:
        self.draining = True
        now = self.clock.now()
        if self.journal is not None:
            self.journal.append({"op": "drain", "t": now})
        self.trace.add_event(
            now, TraceEventKind.MODE_CHANGE, "gateway", detail="draining"
        )
        self._close_listener()
        assert self._pipeline is not None
        await self._pipeline.join()   # decide everything already accepted
        scheduler = self.service.clock
        self.clock.stop_driving()
        scheduler.advance(self.clock.now())
        report = self.service.drain(max_wait=self.config.drain_max_wait)
        # the drain settled work up to the scheduler's time: no later
        # gateway stamp may come before it
        lag = scheduler.now() - self.clock.now()
        if lag > 0:
            await asyncio.sleep(lag * self.clock.scale)
        if self.journal is not None:
            self.journal.append(
                {"op": "drained", "t": self.clock.now()}
            )
        self._teardown()
        if self.terminated is not None:
            self.terminated.set()
        return report

    def force_exit(self) -> None:
        """Immediate checkpoint-and-exit: the journal and write-ahead
        checkpoint are already durable, so there is nothing to flush —
        just stop, hard, and mark termination."""
        if self.killed:
            return
        if self.journal is not None:
            self.journal.append(
                {"op": "forced_exit", "t": self.clock.now()}
            )
        if self._drain_task is not None and not self._drain_task.done():
            self._drain_task.cancel()
        self.kill(_journal_crash=False)
        if self.terminated is not None:
            self.terminated.set()

    def kill(self, *, _journal_crash: bool = True) -> None:
        """Crash simulation: stop everything abruptly, mid-flight.

        Nothing is written — the journal and checkpoint are the only
        survivors, exactly as in a real power loss.
        """
        if self.killed:
            return
        self.killed = True
        self.clock.stop_watchdog()
        self.clock.stop_driving()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        for connection in list(self._connections):
            connection.abort()
        self._connections.clear()
        self._close_listener()
        self.service.kill()

    def _close_listener(self) -> None:
        # no ``wait_closed()``: since CPython 3.12.1 it waits for every
        # accepted connection to close, and ``_teardown`` closes them
        # only once the pipeline and the backend have drained
        if self.server is not None:
            self.server.close()
            self.server = None

    def _teardown(self) -> None:
        self.clock.stop_watchdog()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()

    # -- verification ------------------------------------------------------

    def _planes(self) -> list[ExecutionTrace]:
        """Every plane in merge rank: the service incarnations oldest
        first, then the gateway's planes oldest first."""
        return [
            *self.archived_service_traces, self.service.trace,
            *self.archived_traces, self.trace,
        ]

    def _flush(self, watermark: float) -> None:
        """Feed the online sweep every unfed event before ``watermark``
        and drop it from its plane.

        The watermark is an instant no plane can record before any
        more: the gateway plane records at the wall clock's now, the
        service plane at its scheduler's.  Each plane's unfed tail is
        sorted stably by time first.  The one out-of-order stretch a
        plane holds is a restored incarnation's replayed journal debt,
        stamped at or after the last decided stamp, so none of it has
        been fed.  The cut tails merge in the order of sorting every
        record by (time, plane rank, append order).  A record that
        landed behind the watermark already fed is reported as a
        ``late-record`` violation; it is fed with its batch, never
        reordered silently.
        """
        sweep = self._sweep
        if sweep is None:
            sweep = self._sweep = self._open_sweep()
        batch: list = []
        for trace in self._planes():
            events = trace.events
            events.sort(key=_time)
            cut = bisect.bisect_left(events, watermark, key=_time)
            batch += events[:cut]
            del events[:cut]
        # the planes' cuts in rank order, each in time order: a stable
        # sort by time merges them
        batch.sort(key=_time)
        fed_to = self._fed_to
        behind = bisect.bisect_left(batch, fed_to, key=_time)
        for offset, event in enumerate(batch[:behind]):
            sweep.report.record(
                "late-record", event.time, (event.subject,),
                f"{event.kind.value} at {event.time:.10g} recorded after "
                f"the timeline was checked up to {fed_to:.10g}",
                witness=(sweep.fed + offset,),
            )
        sweep.feed(batch)
        self._fed_to = max(fed_to, watermark)
        self.archived_service_traces = [
            trace for trace in self.archived_service_traces if trace.events
        ]
        self.archived_traces = [
            trace for trace in self.archived_traces if trace.events
        ]

    def _open_sweep(self):
        # imported at the first flush, not at start-up: importing
        # repro.verify takes tens of milliseconds a gateway would
        # otherwise spend before it listens
        from repro.verify.admission import AdmissionProtocolMonitor
        from repro.verify.gateway import GatewayProtocolMonitor
        from repro.verify.invariants import Sweep

        # the feed holds every incarnation, so a restore drill's
        # resumed RELEASEs follow their original admissions
        return Sweep([
            GatewayProtocolMonitor(),
            AdmissionProtocolMonitor(
                replan_window=self.service_config.replan_window
            ),
        ])

    def finish(self, horizon: float | None = None):
        """Feed the sweep the events still unfed, then close its books
        at ``horizon`` (default: now).

        Returns ``(report, terminals)``: the report carries every
        protocol-monitor violation (empty = clean), and ``terminals``
        maps each request id to the kind of its first terminal in the
        merged timeline, ``"completion"`` or ``"shed"``.
        """
        at = horizon if horizon is not None else self.clock.now()
        self._flush(math.inf)
        _gateway, admission = self._sweep.monitors
        return self._sweep.finish(at), admission.first_terminals()

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        backend = self.service.metrics()
        return {
            "ingested": self.ingested,
            "responded": self.responded,
            "replayed": self.replayed,
            "busy_rejections": self.busy_rejections,
            "draining_rejections": self.draining_rejections,
            "torn_frames": self.torn_frames,
            "oversized_frames": self.oversized_frames,
            "timeouts": self.timeouts,
            "protocol_errors": self.protocol_errors,
            "connections_total": self.connections_total,
            "connections_rejected": self.connections_rejected,
            "shutdown_signals": self.shutdown_signals,
            "clock": {
                "scale": self.clock.scale,
                "pauses": len(self.clock.pauses),
                "late_wakeups": self.clock.late_wakeups,
                "max_lateness": self.clock.max_lateness,
            },
            "backend": backend,
        }


class _Connection(asyncio.Protocol):
    """One client connection at the gateway edge.

    Bytes are buffered and complete frames decoded in the transport's
    callbacks.  A submit goes into the gateway's bounded pipeline with
    this connection attached, and the dispatcher hands the ticket back
    through :meth:`answer`.  At most one request is in flight: later
    frames wait in the buffer and are taken in order once it is
    answered.  While a request is in flight, or the transport asks to
    pause writing, reading stops once more than one frame ceiling of
    bytes waits unread.

    One timer bounds the wait: ``idle_timeout_s`` while a header is
    awaited, ``read_timeout_s`` while a started payload is incomplete,
    nothing while the connection is blocked.  Moving the deadline does
    not touch the timer unless the deadline moves earlier; a timer that
    fires before the current deadline re-arms itself to it.
    """

    def __init__(self, gateway: AdmissionGateway) -> None:
        self.gateway = gateway
        self.ceiling = gateway.config.max_frame_bytes
        self.transport: asyncio.Transport | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.buffer = bytearray()
        self.in_flight = False
        self.write_paused = False
        self.reading_paused = False
        self.eof = False
        self.closed = False
        #: what ``deadline`` bounds: "idle" (the next header), "read" (a
        #: started payload) or None (nothing: a frame was just taken)
        self.waiting: str | None = None
        self.deadline: float | None = None
        self.timer: asyncio.TimerHandle | None = None

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        gateway = self.gateway
        if gateway.killed or (
            len(gateway._connections) >= gateway.config.max_connections
        ):
            gateway.connections_rejected += 1
            self.close()
            return
        gateway.connections_total += 1
        gateway._connections.add(self)
        self._take_frames()

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._take_frames()

    def eof_received(self) -> bool:
        self.eof = True
        self._take_frames()
        return True  # keep the write side open for tickets still owed

    def connection_lost(self, exc: Exception | None) -> None:
        # a peer reset part-way through a frame; a close of our own (EOF
        # on a torn frame included) has already set ``closed``
        if exc is not None and not self.closed and self._ends_mid_frame():
            self.gateway.torn_frames += 1
        self.closed = True
        self.gateway._connections.discard(self)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._take_frames()

    # -- frames --------------------------------------------------------

    def _ends_mid_frame(self) -> bool:
        """Whether the unread bytes stop part-way through a frame."""
        buffer, start = self.buffer, 0
        while start < len(buffer):
            # any declared length: only the frame boundaries matter here
            length = frame_length(
                buffer[start:start + HEADER_BYTES], max_frame=1 << 32
            )
            if length is None:
                return True
            start += HEADER_BYTES + length
        return start > len(buffer)

    def _take_frames(self) -> None:
        """Serve every complete frame in the buffer, in order, until a
        request is in flight; then bound the wait for the next one."""
        buffer = self.buffer
        while not (self.in_flight or self.write_paused or self.closed):
            try:
                length = frame_length(buffer, max_frame=self.ceiling)
            except FrameTooLarge as exc:
                self.gateway.oversized_frames += 1
                self._refuse(str(exc))
                return
            if length is not None:
                end = HEADER_BYTES + length
                if len(buffer) >= end:
                    body = bytes(buffer[HEADER_BYTES:end])
                    del buffer[:end]
                    self.waiting = self.deadline = None
                    self._serve(body)
                    continue
            if self.eof:
                if buffer:
                    self.gateway.torn_frames += 1
                self.close()
                return
            self._wait("idle" if length is None else "read")
            break
        paused = (self.in_flight or self.write_paused) and (
            len(buffer) > self.ceiling
        )
        if paused != self.reading_paused and not (self.closed or self.eof):
            self.reading_paused = paused
            if paused:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def _serve(self, body: bytes) -> None:
        gateway = self.gateway
        try:
            payload = decode_payload(body)
        except FrameError as exc:
            gateway.protocol_errors += 1
            self._refuse(str(exc))
            return
        kind = payload.get("kind")
        if kind == "submit":
            try:
                request = parse_request(payload)
            except FrameError as exc:
                gateway.protocol_errors += 1
                self._send(error_payload(str(exc)))
                return
            refusal = gateway._admit_or_reject_at_edge(request, self)
            if refusal is None:
                self.in_flight = True
            else:
                self._send(ticket_payload(refusal))
        elif kind == "ping":
            self._send({"kind": "pong", "now": gateway.clock.now()})
        else:
            gateway.protocol_errors += 1
            self._send(error_payload(f"unknown frame kind {kind!r}"))

    def answer(self, ticket: AdmissionTicket) -> None:
        """The dispatcher's ticket for this connection's request."""
        self.in_flight = False
        self._send(ticket_payload(ticket))
        self._take_frames()

    def _send(self, payload: dict) -> None:
        """Write one frame; never raises.  A frame the peer's own bytes
        made too large (a ticket echoing a huge request id, an error
        naming a huge kind) becomes a short error frame and closes this
        connection only."""
        if self.closed:
            return
        try:
            frame = encode_frame(payload)
        except FrameTooLarge as exc:
            self.gateway.oversized_frames += 1
            self._refuse(str(exc))
            return
        self.transport.write(frame)

    def _refuse(self, message: str) -> None:
        """A framing error: an error frame, then close."""
        self._send(error_payload(message))
        self.close()

    def close(self) -> None:
        """Close after the pending writes are flushed."""
        if not self.closed:
            self.closed = True
            self.transport.close()

    def abort(self) -> None:
        self.closed = True
        self.transport.abort()

    # -- the timer -----------------------------------------------------

    def _wait(self, waiting: str) -> None:
        if self.waiting == waiting:
            return  # a trickle does not extend the bound
        config = self.gateway.config
        self.waiting = waiting
        self.deadline = self.loop.time() + (
            config.read_timeout_s if waiting == "read"
            else config.idle_timeout_s
        )
        if self.timer is not None:
            if self.timer.when() <= self.deadline:
                return  # fires early and re-arms
            self.timer.cancel()
        self.timer = self.loop.call_at(self.deadline, self._on_timer)

    def _on_timer(self) -> None:
        fired_at, self.timer = self.timer.when(), None
        if self.closed or self.deadline is None:
            return
        if self.deadline > fired_at:
            self.timer = self.loop.call_at(self.deadline, self._on_timer)
            return
        self.gateway.timeouts += 1
        self.close()

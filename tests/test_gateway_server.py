"""AdmissionGateway: ingress limits, backpressure, the edge, drain, crash."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.gateway import (
    MAX_FRAME_BYTES,
    AdmissionGateway,
    GatewayConfig,
    encode_frame,
    load_journal,
    parse_ticket,
    ping_payload,
    read_frame,
    submit_payload,
    undecided_entries,
    write_frame,
)
from repro.gateway.soak import default_gateway_service_config
from repro.service import EventRequest
from repro.sim.trace import TraceEventKind


def _request(rid: str, cost: float = 0.2, deadline: float = 20.0,
             hard: bool = True, source: str = "src-0") -> EventRequest:
    return EventRequest(rid, cost=cost, relative_deadline=deadline,
                        hard=hard, source=source)


def _paths(tmp_path):
    return dict(
        journal_path=tmp_path / "journal.jsonl",
        checkpoint_path=tmp_path / "checkpoint.jsonl",
    )


def _config(tmp_path, **overrides) -> GatewayConfig:
    overrides.setdefault("unix_path", str(tmp_path / "gw.sock"))
    return GatewayConfig(**overrides)


async def _connect(gateway):
    return await asyncio.open_unix_connection(gateway.address)


async def _submit(reader, writer, request) -> object:
    await write_frame(writer, submit_payload(request))
    payload = await read_frame(reader)
    return parse_ticket(payload)


class TestRoundTrip:
    def test_submit_admit_and_idempotent_duplicate(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
                **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            ticket = await _submit(reader, writer, _request("r-1"))
            assert ticket.decision.value == "admit"
            assert not ticket.duplicate
            again = await _submit(reader, writer, _request("r-1"))
            assert again.decision.value == "admit"
            assert again.duplicate
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()
            report, _merged = gateway.finish()
            assert not report.violations
            ops = load_journal(tmp_path / "journal.jsonl")
            # both frames journaled: 2 ingests, 2 decisions, one admit
            assert sum(1 for op in ops if op["op"] == "ingest") == 2
            assert sum(1 for op in ops if op["op"] == "decided") == 2
            assert undecided_entries(ops) == []

        asyncio.run(scenario())

    def test_ping_pong_and_unknown_kind(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            reader, writer = await _connect(gateway)
            await write_frame(writer, ping_payload())
            pong = await read_frame(reader)
            assert pong["kind"] == "pong"
            assert pong["now"] >= 0.0
            await write_frame(writer, {"kind": "mystery"})
            answer = await read_frame(reader)
            assert answer["kind"] == "error"
            assert gateway.protocol_errors == 1
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())


class TestIngressLimits:
    def test_oversized_frame_is_rejected_and_accounted(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, max_frame_bytes=128),
                default_gateway_service_config(),
            ).start()
            reader, writer = await _connect(gateway)
            writer.write(struct.pack(">I", 1 << 20))
            await writer.drain()
            answer = await read_frame(reader)
            assert answer["kind"] == "error"
            assert await read_frame(reader) is None  # connection closed
            assert gateway.oversized_frames == 1
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_slowloris_connection_is_dropped(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, read_timeout_s=0.05),
                default_gateway_service_config(),
            ).start()
            _reader, writer = await _connect(gateway)
            frame = encode_frame(ping_payload())
            writer.write(frame[:6])  # header + 2 bytes, then silence
            await writer.drain()
            await asyncio.sleep(0.2)
            assert gateway.timeouts == 1
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_torn_frame_is_accounted(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            _reader, writer = await _connect(gateway)
            frame = encode_frame(submit_payload(_request("r-torn")))
            writer.write(frame[: len(frame) - 4])
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            assert gateway.torn_frames == 1
            assert gateway.ingested == 0  # never half-parsed
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_connection_cap(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, max_connections=1),
                default_gateway_service_config(),
            ).start()
            r1, w1 = await _connect(gateway)
            await _submit(r1, w1, _request("r-1"))  # conn 1 is live
            r2, w2 = await _connect(gateway)
            # the second connection is closed without service
            assert await read_frame(r2) is None
            assert gateway.connections_rejected == 1
            for w in (w1, w2):
                w.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())


def _stall_dispatcher(gateway):
    """Hold every request at the dispatcher until the returned event is
    set; the list collects the ids held so far."""
    release = asyncio.Event()
    held: list[str] = []
    decide = gateway._decide

    async def stalled(request):
        held.append(request.request_id)
        await release.wait()
        return await decide(request)

    gateway._decide = stalled
    return release, held


async def _eventually(predicate, timeout: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def _journaled_ids(path) -> set[str]:
    ids = set()
    for op in load_journal(path):
        if "request" in op:
            ids.add(op["request"]["request_id"])
        if "id" in op:
            ids.add(op["id"])
    return ids


class TestBackpressure:
    def test_pipeline_overflow_answers_reject_busy(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, max_in_flight=1),
                default_gateway_service_config(), **_paths(tmp_path),
            ).start()
            release, held = _stall_dispatcher(gateway)
            lanes = [await _connect(gateway) for _ in range(3)]
            # r-0 stalls at the dispatcher, r-1 fills the depth-1 pipeline
            await write_frame(lanes[0][1], submit_payload(_request("r-0")))
            await _eventually(lambda: held == ["r-0"])
            await write_frame(lanes[1][1], submit_payload(_request("r-1")))
            await _eventually(lambda: sum(
                c.in_flight for c in gateway._connections) == 2)
            busy = await _submit(*lanes[2], _request("r-2"))
            assert busy.decision.value == "reject_busy"
            assert busy.retryable
            assert "depth=1/1" in busy.detail
            assert gateway.busy_rejections == 1
            release.set()
            for reader, _writer in lanes[:2]:
                ticket = parse_ticket(await read_frame(reader))
                assert ticket.decision.value == "admit"
            for _reader, writer in lanes:
                writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()
            # the edge rejection is traced but never journaled
            kinds = [e.detail for e in gateway.trace.events
                     if e.subject == "r-2"]
            assert kinds == ["reject_busy depth=1/1 edge"]
            journaled = _journaled_ids(tmp_path / "journal.jsonl")
            assert {"r-0", "r-1"} <= journaled
            assert "r-2" not in journaled

        asyncio.run(scenario())

    def test_draining_answers_reject_draining_at_the_edge(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
                **_paths(tmp_path),
            ).start()
            release, held = _stall_dispatcher(gateway)
            (r1, w1), (r2, w2) = [await _connect(gateway) for _ in range(2)]
            await write_frame(w1, submit_payload(_request("r-1")))
            await _eventually(lambda: held == ["r-1"])
            gateway.request_shutdown()
            # the drain waits for r-1 at the dispatcher; a new frame on
            # a live connection is refused at the edge meanwhile
            await _eventually(lambda: gateway.draining)
            ticket = await _submit(r2, w2, _request("r-2"))
            assert ticket.decision.value == "reject_draining"
            assert gateway.draining_rejections == 1
            release.set()
            first = parse_ticket(await read_frame(r1))
            assert first.decision.value == "admit"
            for writer in (w1, w2):
                writer.close()
            await gateway.terminated.wait()
            kinds = [e.detail for e in gateway.trace.events
                     if e.subject == "r-2"]
            assert kinds == ["reject_draining edge"]
            assert "r-2" not in _journaled_ids(tmp_path / "journal.jsonl")

        asyncio.run(scenario())


class TestEdge:
    """The per-connection frame parser at a live socket."""

    def test_frames_in_one_write_are_answered_in_order(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            reader, writer = await _connect(gateway)
            ids = [f"r-{i:02d}" for i in range(12)]
            frames = [encode_frame(submit_payload(_request(rid, cost=0.05)))
                      for rid in ids]
            frames.insert(6, encode_frame(ping_payload()))
            writer.write(b"".join(frames))
            await writer.drain()
            answers = [await read_frame(reader) for _ in frames]
            assert answers[6]["kind"] == "pong"
            del answers[6]
            assert [parse_ticket(a).request_id for a in answers] == ids
            assert gateway.ingested == len(ids)
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_frame_trickled_one_byte_per_write_decodes(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, read_timeout_s=5.0),
                default_gateway_service_config(),
            ).start()
            reader, writer = await _connect(gateway)
            frame = encode_frame(submit_payload(_request("r-slow")))
            for i in range(len(frame)):
                writer.write(frame[i:i + 1])
                await writer.drain()
                await asyncio.sleep(0.001)
            ticket = parse_ticket(await read_frame(reader))
            assert ticket.request_id == "r-slow"
            assert ticket.decision.value == "admit"
            assert gateway.timeouts == 0
            assert gateway.torn_frames == 0
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_pipelining_past_the_ceiling_pauses_reading(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path, max_frame_bytes=512),
                default_gateway_service_config(),
            ).start()
            release, held = _stall_dispatcher(gateway)
            reader, writer = await _connect(gateway)
            ids = [f"r-{i:02d}" for i in range(40)]
            burst = b"".join(
                encode_frame(submit_payload(_request(rid, cost=0.01)))
                for rid in ids
            )
            assert len(burst) > 4 * 512
            writer.write(burst)
            await writer.drain()
            await _eventually(lambda: gateway._connections)
            (connection,) = gateway._connections
            # r-00 is in flight; the rest waits unread past one ceiling
            await _eventually(
                lambda: not connection.transport.is_reading())
            assert held == ["r-00"]
            release.set()
            tickets = [parse_ticket(await read_frame(reader)) for _ in ids]
            assert [t.request_id for t in tickets] == ids
            assert connection.transport.is_reading()
            assert not connection.buffer
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_failed_decision_drops_the_connection_and_reports(
            self, tmp_path):
        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context))
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()

            async def broken(request):
                raise RuntimeError("backend exploded")

            gateway._decide = broken
            reader, writer = await _connect(gateway)
            await write_frame(writer, submit_payload(_request("r-1")))
            assert await read_frame(reader) is None  # closed, no ticket
            assert [str(c["exception"]) for c in reported] == [
                "backend exploded"]
            assert "'r-1'" in reported[0]["message"]
            del gateway._decide  # the dispatcher serves the next request
            r2, w2 = await _connect(gateway)
            ticket = await _submit(r2, w2, _request("r-2"))
            assert ticket.decision.value == "admit"
            for w in (writer, w2):
                w.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())

    def test_oversized_ticket_closes_only_its_connection(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            # a submit exactly at the ceiling: its ticket, which echoes
            # the request id with more overhead, cannot be framed
            base = len(encode_frame(submit_payload(_request("r")))) - 4
            huge = _request("r" * (1 + MAX_FRAME_BYTES - base))
            reader, writer = await _connect(gateway)
            await write_frame(writer, submit_payload(huge))
            answer = await asyncio.wait_for(read_frame(reader), 5.0)
            assert answer["kind"] == "error"
            assert "ceiling" in answer["error"]
            assert await read_frame(reader) is None  # connection closed
            assert gateway.oversized_frames == 1
            r2, w2 = await _connect(gateway)
            ticket = await asyncio.wait_for(
                _submit(r2, w2, _request("r-2")), 5.0)
            assert ticket.decision.value == "admit"
            for w in (writer, w2):
                w.close()
            gateway.request_shutdown()
            await asyncio.wait_for(gateway.terminated.wait(), 5.0)

        asyncio.run(scenario())

    @pytest.mark.parametrize("behind_submit", [False, True])
    def test_oversized_error_frame_closes_only_its_connection(
            self, tmp_path, behind_submit):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            # an unknown kind exactly at the ceiling: the error frame
            # naming it cannot be framed
            kind = "k" * (MAX_FRAME_BYTES - len('{"kind":""}'))
            frames = [encode_frame({"kind": kind})]
            if behind_submit:  # answered from the dispatcher's callback
                frames.insert(0, encode_frame(
                    submit_payload(_request("r-1"))))
            reader, writer = await _connect(gateway)
            writer.write(b"".join(frames))
            await writer.drain()
            if behind_submit:
                ticket = parse_ticket(
                    await asyncio.wait_for(read_frame(reader), 5.0))
                assert ticket.decision.value == "admit"
            answer = await asyncio.wait_for(read_frame(reader), 5.0)
            assert answer["kind"] == "error"
            assert "ceiling" in answer["error"]
            assert await read_frame(reader) is None  # connection closed
            assert gateway.protocol_errors == 1
            assert gateway.oversized_frames == 1
            r2, w2 = await _connect(gateway)
            ticket = await asyncio.wait_for(
                _submit(r2, w2, _request("r-2")), 5.0)
            assert ticket.decision.value == "admit"
            for w in (writer, w2):
                w.close()
            gateway.request_shutdown()
            await asyncio.wait_for(gateway.terminated.wait(), 5.0)

        asyncio.run(scenario())

    def test_partial_header_then_eof_is_torn(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            ).start()
            _reader, writer = await _connect(gateway)
            writer.write(encode_frame(ping_payload())[:2])
            await writer.drain()
            writer.close()
            await _eventually(lambda: gateway.torn_frames == 1)
            assert gateway.ingested == 0
            assert gateway.timeouts == 0
            gateway.request_shutdown()
            await gateway.terminated.wait()

        asyncio.run(scenario())


class TestDrain:
    def test_sigterm_drains_and_terminates(self, tmp_path):
        async def scenario():
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
                **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            await _submit(reader, writer, _request("r-1", cost=0.1))
            gateway.request_shutdown()
            await gateway.terminated.wait()
            # a post-drain client cannot connect (listener closed)
            with pytest.raises((ConnectionError, FileNotFoundError, OSError)):
                await _connect(gateway)
            ops = load_journal(tmp_path / "journal.jsonl")
            assert [op["op"] for op in ops if op["op"] in
                    ("drain", "drained")] == ["drain", "drained"]
            writer.close()

        asyncio.run(scenario())

    def test_drain_cutoff_sheds_unsettleable_work_explicitly(self, tmp_path):
        from repro.service import WallClock

        async def scenario():
            # 10ms/tu: the queued backlog below settles over ~180ms of
            # wall time, far beyond the 1 tu drain window
            gateway = await AdmissionGateway(
                _config(tmp_path, drain_max_wait=1.0),
                default_gateway_service_config(),
                clock=WallClock(scale=0.01),
                **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            admitted = []
            for i in range(12):
                ticket = await _submit(
                    reader, writer,
                    _request(f"r-{i:02d}", cost=1.5, deadline=10000.0),
                )
                if ticket.decision.value == "admit":
                    admitted.append(ticket.request_id)
            assert len(admitted) >= 6
            writer.close()
            gateway.request_shutdown()
            await gateway.terminated.wait()
            sheds = [e for e in gateway.service.trace.events
                     if e.kind is TraceEventKind.SHED
                     and "drain cutoff" in e.detail]
            # everything that could not settle by the cutoff carries an
            # explicit drain-cutoff fate — nothing silently dropped
            assert sheds
            completions = {
                e.subject for e in gateway.service.trace.events
                if e.kind is TraceEventKind.COMPLETION
            }
            assert completions | {e.subject for e in sheds} >= set(admitted)

        asyncio.run(scenario())

    def test_second_sigterm_forces_immediate_exit(self, tmp_path):
        from repro.service import WallClock

        async def scenario():
            # 100ms/tu: the admitted backlog would keep a graceful
            # drain busy for seconds — plenty of room for the second
            # signal to cut in
            gateway = await AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
                clock=WallClock(scale=0.1),
                **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            for i in range(4):
                await _submit(reader, writer,
                              _request(f"r-{i}", cost=1.9, deadline=500.0))
            gateway.request_shutdown()
            await asyncio.sleep(0)
            assert gateway.draining and not gateway.terminated.is_set()
            gateway.request_shutdown()  # the impatient second signal
            await asyncio.wait_for(gateway.terminated.wait(), timeout=2.0)
            assert gateway.killed
            assert gateway.shutdown_signals == 2
            ops = load_journal(tmp_path / "journal.jsonl")
            assert any(op["op"] == "forced_exit" for op in ops)
            # further signals are no-ops, not errors
            gateway.request_shutdown()
            assert gateway.shutdown_signals == 3
            writer.close()

        asyncio.run(scenario())


class TestUndecidedEntries:
    def test_repeated_ids_settle_oldest_first(self):
        first = {"op": "ingest", "request": {"request_id": "a", "n": 1}}
        second = {"op": "ingest", "request": {"request_id": "a", "n": 2}}
        ops = [first, second, {"op": "decided", "id": "a"}]
        assert undecided_entries(ops) == [second]

    def test_out_of_order_decisions_keep_journal_order(self):
        ops = [
            {"op": "ingest", "request": {"request_id": rid}}
            for rid in ("a", "b", "c", "d")
        ]
        ops += [{"op": "decided", "id": "c"}, {"op": "decided", "id": "a"}]
        debt = undecided_entries(ops)
        assert [d["request"]["request_id"] for d in debt] == ["b", "d"]

    def test_decision_without_ingest_settles_nothing(self):
        ingest = {"op": "ingest", "request": {"request_id": "a"}}
        ops = [{"op": "decided", "id": "a"}, ingest,
               {"op": "decided", "id": "zz"}]
        assert undecided_entries(ops) == [ingest]


class TestCrashRestore:
    def test_kill_and_restore_without_double_admission(self, tmp_path):
        async def scenario():
            service_config = default_gateway_service_config()
            config = _config(tmp_path)
            gateway = await AdmissionGateway(
                config, service_config, **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            ticket = await _submit(reader, writer, _request("r-1"))
            assert ticket.decision.value == "admit"
            gateway.kill()
            writer.close()

            restored = await AdmissionGateway.restore(
                config, service_config, **_paths(tmp_path),
                predecessor=gateway,
            )
            # the restored logical timeline resumes past the last stamp
            assert restored.clock.start > ticket.submitted_at
            r2, w2 = await _connect(restored)
            # the same id resubmitted: answered from the journal-seeded
            # cache as a duplicate, never re-admitted
            again = await _submit(r2, w2, _request("r-1"))
            assert again.decision.value == "admit"
            assert again.duplicate
            fresh = await _submit(r2, w2, _request("r-2"))
            assert fresh.decision.value == "admit"
            assert not fresh.duplicate
            w2.close()
            restored.request_shutdown()
            await restored.terminated.wait()
            report, merged = restored.finish()
            assert not report.violations
            # exactly one RELEASE for the pre-crash admission across
            # both incarnations (the resumed one is tagged, not dup)
            releases = [e for e in merged.events
                        if e.kind is TraceEventKind.RELEASE
                        and e.subject == "r-1"
                        and not e.detail.startswith("resumed")]
            assert len(releases) == 1

        asyncio.run(scenario())

    def test_restore_replays_undecided_journal_entries(self, tmp_path):
        async def scenario():
            service_config = default_gateway_service_config()
            config = _config(tmp_path)
            gateway = await AdmissionGateway(
                config, service_config, **_paths(tmp_path),
            ).start()
            reader, writer = await _connect(gateway)
            await _submit(reader, writer, _request("r-1"))
            gateway.kill()
            writer.close()
            # a crash after journaling the ingest but before the
            # decision: append the bare ingest op the dispatcher wrote
            stamp = gateway.clock.now() + 0.5
            gateway.journal.append({
                "op": "ingest", "t": stamp,
                "request": _request("r-interrupted").to_dict(),
            })
            ops = load_journal(tmp_path / "journal.jsonl")
            debt = undecided_entries(ops)
            assert [d["request"]["request_id"] for d in debt] == (
                ["r-interrupted"]
            )

            restored = await AdmissionGateway.restore(
                config, service_config, **_paths(tmp_path),
                predecessor=gateway,
            )
            assert restored.replayed == 1
            ops = load_journal(tmp_path / "journal.jsonl")
            assert undecided_entries(ops) == []
            decided = [op for op in ops if op["op"] == "decided"
                       and op["id"] == "r-interrupted"]
            assert len(decided) == 1
            assert decided[0]["t"] == stamp  # original stamp preserved
            restored.request_shutdown()
            await restored.terminated.wait()
            report, _merged = restored.finish()
            assert not report.violations

        asyncio.run(scenario())

    def test_fabric_must_share_the_gateway_clock(self, tmp_path):
        from repro.fabric import AdmissionFabric, FabricConfig
        from repro.service import VirtualClock

        async def scenario():
            service_config = default_gateway_service_config()
            fabric = AdmissionFabric(
                FabricConfig(shards=1, supervised=False),
                service_config, clock=VirtualClock(),
            )
            with pytest.raises(ValueError):
                AdmissionGateway(
                    _config(tmp_path), service_config, fabric=fabric,
                )

        asyncio.run(scenario())

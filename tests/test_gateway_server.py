"""AdmissionGateway (PR 9): ingress limits, backpressure, drain, crash."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.gateway import (
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


class TestBackpressure:
    def test_pipeline_overflow_answers_reject_busy(self, tmp_path):
        async def scenario():
            gateway = AdmissionGateway(
                _config(tmp_path, max_in_flight=1),
                default_gateway_service_config(),
            )
            # no dispatcher: the pipeline cannot drain, so depth 1 fills
            gateway._pipeline = asyncio.Queue(maxsize=1)
            first = asyncio.create_task(
                gateway._admit_or_reject_at_edge(_request("r-1"), 1)
            )
            await asyncio.sleep(0)
            busy = await gateway._admit_or_reject_at_edge(_request("r-2"), 1)
            assert busy.decision.value == "reject_busy"
            assert busy.retryable
            assert "depth=1/1" in busy.detail
            assert gateway.busy_rejections == 1
            first.cancel()
            await asyncio.gather(first, return_exceptions=True)
            # the edge rejection is traced but never journaled
            kinds = [e.detail for e in gateway.trace.events
                     if e.subject == "r-2"]
            assert kinds == ["reject_busy depth=1/1 edge"]

        asyncio.run(scenario())

    def test_draining_answers_reject_draining_at_the_edge(self, tmp_path):
        async def scenario():
            gateway = AdmissionGateway(
                _config(tmp_path), default_gateway_service_config(),
            )
            gateway._pipeline = asyncio.Queue(maxsize=4)
            gateway.draining = True
            ticket = await gateway._admit_or_reject_at_edge(
                _request("r-1"), 1
            )
            assert ticket.decision.value == "reject_draining"
            assert gateway.draining_rejections == 1

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

"""Gateway wire protocol (PR 9): framing limits, parsers, fault plans."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.gateway import (
    FrameError,
    FrameTimeout,
    FrameTooLarge,
    ProxyFaultPlan,
    TornFrame,
    encode_frame,
    error_payload,
    parse_request,
    parse_ticket,
    ping_payload,
    read_frame,
    read_raw_frame,
    submit_payload,
    ticket_payload,
)
from repro.gateway.protocol import frame_length
from repro.service import AdmissionTicket, EventRequest
from repro.service.requests import RETRYABLE, Decision


def _reader(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return reader


def _request(rid: str = "r-1") -> EventRequest:
    return EventRequest(rid, cost=0.5, relative_deadline=10.0,
                        hard=True, source="src-0")


class TestFraming:
    def test_roundtrip(self):
        async def scenario():
            payload = submit_payload(_request())
            reader = _reader(encode_frame(payload))
            assert await read_frame(reader) == payload
            assert await read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_two_frames_back_to_back(self):
        async def scenario():
            reader = _reader(
                encode_frame(ping_payload()) + encode_frame(ping_payload())
            )
            assert (await read_frame(reader))["kind"] == "ping"
            assert (await read_frame(reader))["kind"] == "ping"
            assert await read_frame(reader) is None

        asyncio.run(scenario())

    def test_declared_length_beyond_ceiling_rejected_before_payload(self):
        async def scenario():
            reader = _reader(struct.pack(">I", 1 << 30))
            with pytest.raises(FrameTooLarge):
                await read_frame(reader, max_frame=1024)

        asyncio.run(scenario())

    def test_frame_length_reads_and_bounds_the_header(self):
        frame = encode_frame(ping_payload())
        assert frame_length(frame[:3]) is None  # header incomplete
        assert frame_length(frame) == len(frame) - 4
        assert frame_length(bytearray(frame[:4])) == len(frame) - 4
        with pytest.raises(FrameTooLarge, match="ceiling 1024"):
            frame_length(struct.pack(">I", 1025), max_frame=1024)

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * 2048}, max_frame=1024)

    def test_eof_mid_payload_is_torn_frame(self):
        async def scenario():
            frame = encode_frame(ping_payload())
            reader = _reader(frame[: len(frame) - 3])
            with pytest.raises(TornFrame):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_eof_mid_header_is_torn_frame(self):
        async def scenario():
            reader = _reader(b"\x00\x00")
            with pytest.raises(TornFrame):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_idle_timeout_between_frames(self):
        async def scenario():
            reader = asyncio.StreamReader()  # never fed: peer is silent
            with pytest.raises(FrameTimeout):
                await read_frame(reader, idle_timeout=0.02)

        asyncio.run(scenario())

    def test_slowloris_trips_read_timeout(self):
        async def scenario():
            frame = encode_frame(ping_payload())
            reader = _reader(frame[:6], eof=False)  # header + 2 bytes
            with pytest.raises(FrameTimeout):
                await read_frame(reader, read_timeout=0.02)

        asyncio.run(scenario())

    def test_invalid_json_and_non_object_payloads(self):
        async def scenario():
            body = b"not json"
            reader = _reader(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                await read_frame(reader)
            body = b"[1,2,3]"
            reader = _reader(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                await read_frame(reader)
            body = b"[" * 60_000  # nested past the decoder's recursion limit
            reader = _reader(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_read_raw_frame_preserves_wire_bytes(self):
        async def scenario():
            frame = encode_frame(error_payload("boom"))
            assert await read_raw_frame(_reader(frame)) == frame

        asyncio.run(scenario())


class TestPayloads:
    def test_ticket_roundtrip_through_payload(self):
        ticket = AdmissionTicket(
            "r-9", Decision.ADMIT, 4.25, detail="ok", attempt=2,
        )
        parsed = parse_ticket(ticket_payload(ticket))
        assert parsed == ticket

    def test_request_roundtrip_through_payload(self):
        request = _request("r-7")
        assert parse_request(submit_payload(request)) == request

    def test_malformed_payloads_raise_frame_error(self):
        with pytest.raises(FrameError):
            parse_request({"kind": "submit"})
        with pytest.raises(FrameError):
            parse_request({"kind": "submit", "request": {"cost": -1}})
        with pytest.raises(FrameError):
            parse_ticket({"kind": "ticket"})
        with pytest.raises(FrameError):
            parse_ticket({"kind": "ticket", "ticket": {"decision": "nope"}})

    def test_reject_busy_is_retryable(self):
        """The gateway's backpressure rejection must invite a retry."""
        assert Decision.REJECT_BUSY in RETRYABLE
        ticket = AdmissionTicket("r-1", Decision.REJECT_BUSY, 0.0)
        assert ticket.retryable
        assert parse_ticket(ticket_payload(ticket)).retryable


class TestProxyFaultPlan:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ProxyFaultPlan(reset_probability=1.5)
        with pytest.raises(ValueError):
            ProxyFaultPlan(duplicate_probability=-0.1)

    def test_active_property(self):
        assert not ProxyFaultPlan().active
        assert ProxyFaultPlan(latency_s=0.001).active
        assert ProxyFaultPlan(reorder_probability=0.1).active

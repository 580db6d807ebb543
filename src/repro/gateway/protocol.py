"""Length-prefixed JSON wire protocol of the admission gateway.

One frame = a 4-byte big-endian unsigned payload length followed by
that many bytes of UTF-8 JSON.  The framing is deliberately minimal —
the robustness lives in the *limits*:

* a declared length beyond ``max_frame`` is rejected before a single
  payload byte is read (:class:`FrameTooLarge`), so an attacker cannot
  make the gateway buffer arbitrary amounts;
* the header read honours an *idle* timeout (silence between frames)
  and the payload read a *read* timeout (a peer trickling one byte at a
  time — slowloris — trips :class:`FrameTimeout` instead of pinning a
  connection slot forever);
* EOF mid-frame is a :class:`TornFrame`, distinct from the clean EOF at
  a frame boundary (``None``), so the accounting can tell a polite
  hangup from a torn write.

Payload shapes (the full spec lives in ``docs/deployment.md``):

* client → gateway: ``{"kind": "submit", "request": {...}}`` or
  ``{"kind": "ping"}``;
* gateway → client: ``{"kind": "ticket", "ticket": {...}}``,
  ``{"kind": "pong", "now": t}`` or ``{"kind": "error", "error": msg}``.
"""

from __future__ import annotations

import asyncio
import json
import struct

from repro.service import AdmissionTicket, EventRequest

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "FrameTooLarge",
    "FrameTimeout",
    "TornFrame",
    "HEADER_BYTES",
    "encode_frame",
    "frame_length",
    "decode_payload",
    "read_frame",
    "read_raw_frame",
    "write_frame",
    "submit_payload",
    "ping_payload",
    "ticket_payload",
    "error_payload",
    "parse_request",
    "parse_ticket",
]

#: default ceiling on one frame's JSON payload
MAX_FRAME_BYTES = 64 * 1024
_HEADER = struct.Struct(">I")
#: bytes of the length header in front of every payload
HEADER_BYTES = _HEADER.size


class FrameError(Exception):
    """The peer violated the framing protocol."""


class FrameTooLarge(FrameError):
    """Declared payload length exceeds the negotiated ceiling."""


class FrameTimeout(FrameError):
    """The peer went silent mid-frame (or idled past the idle bound)."""


class TornFrame(FrameError):
    """The connection ended in the middle of a frame."""


def encode_frame(payload: dict, *, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame:
        raise FrameTooLarge(
            f"payload is {len(body)} bytes, ceiling {max_frame}"
        )
    return _HEADER.pack(len(body)) + body


def frame_length(
    buffer: bytes | bytearray, *, max_frame: int = MAX_FRAME_BYTES,
) -> int | None:
    """The payload length the header at the start of ``buffer``
    declares, or ``None`` while the header is incomplete; raises
    :class:`FrameTooLarge` for a length beyond ``max_frame``."""
    if len(buffer) < HEADER_BYTES:
        return None
    (length,) = _HEADER.unpack_from(buffer)
    if length > max_frame:
        raise FrameTooLarge(
            f"declared payload {length} bytes, ceiling {max_frame}"
        )
    return length


def decode_payload(body: bytes) -> dict:
    """The JSON object one frame's payload bytes encode; raises
    :class:`FrameError` for invalid UTF-8 or JSON (nesting deeper than
    the decoder's recursion limit included), or a non-object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise FrameError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def _read_exactly(
    reader: asyncio.StreamReader, n: int, timeout: float | None,
    *, mid_frame: bool,
) -> bytes | None:
    """``n`` bytes, or ``None`` on clean EOF before the first byte."""
    try:
        if timeout is None:
            return await reader.readexactly(n)
        return await asyncio.wait_for(reader.readexactly(n), timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not mid_frame:
            return None  # clean hangup at a frame boundary
        raise TornFrame(
            f"connection ended {len(exc.partial)}/{n} bytes into a read"
        ) from exc
    except (asyncio.TimeoutError, TimeoutError) as exc:
        kind = "mid-frame read" if mid_frame else "idle"
        raise FrameTimeout(f"{kind} timeout after {timeout:g}s") from exc


async def read_raw_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    idle_timeout: float | None = None,
    read_timeout: float | None = None,
) -> bytes | None:
    """One frame's *wire bytes* (header + payload), unparsed.

    The fault proxy uses this to forward/duplicate/tear frames
    coherently without caring about their JSON.  Returns ``None`` on
    clean EOF at a frame boundary.
    """
    header = await _read_exactly(reader, HEADER_BYTES, idle_timeout,
                                 mid_frame=False)
    if header is None:
        return None
    length = frame_length(header, max_frame=max_frame)
    body = await _read_exactly(reader, length, read_timeout, mid_frame=True)
    return header + body


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame: int = MAX_FRAME_BYTES,
    idle_timeout: float | None = None,
    read_timeout: float | None = None,
) -> dict | None:
    """One parsed payload, or ``None`` on clean EOF at a boundary."""
    raw = await read_raw_frame(
        reader, max_frame=max_frame,
        idle_timeout=idle_timeout, read_timeout=read_timeout,
    )
    if raw is None:
        return None
    return decode_payload(raw[HEADER_BYTES:])


async def write_frame(
    writer: asyncio.StreamWriter, payload: dict,
    *, max_frame: int = MAX_FRAME_BYTES,
) -> None:
    writer.write(encode_frame(payload, max_frame=max_frame))
    await writer.drain()


# -- payload constructors / parsers -------------------------------------


def submit_payload(request: EventRequest) -> dict:
    return {"kind": "submit", "request": request.to_dict()}


def ping_payload() -> dict:
    return {"kind": "ping"}


def ticket_payload(ticket: AdmissionTicket) -> dict:
    return {"kind": "ticket", "ticket": ticket.to_dict()}


def error_payload(message: str) -> dict:
    return {"kind": "error", "error": message}


def parse_request(payload: dict) -> EventRequest:
    """The :class:`EventRequest` of a submit payload; raises
    :class:`FrameError` on malformed shapes (unknown fields, bad
    values) so the connection handler can answer with an error frame
    instead of crashing."""
    data = payload.get("request")
    if not isinstance(data, dict):
        raise FrameError("submit payload carries no request object")
    try:
        return EventRequest.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"malformed request: {exc}") from exc


def parse_ticket(payload: dict) -> AdmissionTicket:
    data = payload.get("ticket")
    if not isinstance(data, dict):
        raise FrameError("ticket payload carries no ticket object")
    try:
        return AdmissionTicket.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise FrameError(f"malformed ticket: {exc}") from exc

"""Seeded network-fault injection for the gateway's adversarial drills.

:class:`NetworkFaultProxy` sits between clients and the gateway and
mangles the *request* direction at frame granularity — it parses the
length-prefixed framing (without touching the JSON), so every injected
fault is coherent at the protocol level:

* **latency/jitter** — each forwarded frame is delayed by
  ``latency_s + U(0, jitter_s)`` wall seconds;
* **connection resets** — both sides are aborted mid-conversation; the
  client must reconnect and retry (idempotently);
* **torn writes** — the frame header plus a strict prefix of the
  payload is forwarded, then the connection dies: the gateway must
  account a :class:`~repro.gateway.protocol.TornFrame`, never a
  half-parsed request;
* **duplicate frames** — the same submit lands twice: the second
  decision must come back flagged ``duplicate`` (idempotency fused
  through journal, cache, and planner);
* **reordered frames** — a frame is held back and swapped with its
  successor, permuting arrival stamps.

Draws are :class:`~repro.workload.rng.PortableRandom`, seeded per
(plan seed, connection), so a drill replays its fault schedule
deterministically for a given connection sequence.  Responses flow back
unmangled — the drills target ingestion, and an unreadable response is
indistinguishable from client-side loss, which retries already cover.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.workload.rng import PortableRandom

from .protocol import HEADER_BYTES, FrameError, read_raw_frame

__all__ = ["ProxyFaultPlan", "NetworkFaultProxy"]


@dataclass(frozen=True)
class ProxyFaultPlan:
    """Per-frame fault probabilities and delays (request direction)."""

    latency_s: float = 0.0
    jitter_s: float = 0.0
    reset_probability: float = 0.0
    torn_frame_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reset_probability", "torn_frame_probability",
                     "duplicate_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def active(self) -> bool:
        return any((
            self.latency_s > 0, self.jitter_s > 0,
            self.reset_probability > 0, self.torn_frame_probability > 0,
            self.duplicate_probability > 0, self.reorder_probability > 0,
        ))


class _Reset(Exception):
    """Internal: this connection drew a reset."""


class NetworkFaultProxy:
    """A frame-aware chaos proxy in front of one gateway listener."""

    def __init__(
        self,
        plan: ProxyFaultPlan,
        target: tuple[str, int] | str,
        *,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        listen_unix_path: str | None = None,
        seed: int = 0,
        max_frame: int = 1 << 20,
    ) -> None:
        self.plan = plan
        self.target = target
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.listen_unix_path = listen_unix_path
        self.seed = seed
        self.max_frame = max_frame
        self.server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | str | None = None
        self._conn_seq = 0
        self._tasks: set[asyncio.Task] = set()
        # injection counters
        self.forwarded = 0
        self.resets = 0
        self.torn = 0
        self.duplicated = 0
        self.reordered = 0
        self.delayed = 0
        self.connect_failures = 0

    async def start(self) -> "NetworkFaultProxy":
        if self.listen_unix_path is not None:
            path = Path(self.listen_unix_path)
            path.unlink(missing_ok=True)
            self.server = await asyncio.start_unix_server(
                self._handle, path=str(path)
            )
            self.address = str(path)
        else:
            self.server = await asyncio.start_server(
                self._handle, self.listen_host, self.listen_port
            )
            sock = self.server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
        return self

    async def close(self) -> None:
        if self.server is not None:
            self.server.close()
            try:
                await self.server.wait_closed()
            except Exception:
                pass
            self.server = None
        for task in list(self._tasks):
            task.cancel()

    async def _connect_target(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if isinstance(self.target, str):
            return await asyncio.open_unix_connection(self.target)
        host, port = self.target
        return await asyncio.open_connection(host, port)

    async def _handle(
        self, client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self._conn_seq += 1
        rng = PortableRandom(self.seed * 1_000_003 + self._conn_seq)
        try:
            upstream_reader, upstream_writer = await self._connect_target()
        except (ConnectionError, OSError):
            # gateway down (kill drill) — the client sees a reset
            self.connect_failures += 1
            self._abort(client_writer)
            return
        pump_up = asyncio.create_task(
            self._pump_requests(client_reader, upstream_writer, rng)
        )
        pump_down = asyncio.create_task(
            self._pump_responses(upstream_reader, client_writer)
        )
        try:
            done, pending = await asyncio.wait(
                {pump_up, pump_down}, return_when=asyncio.FIRST_COMPLETED
            )
            reset = any(
                isinstance(t.exception(), _Reset)
                for t in done if not t.cancelled()
            )
            for task_ in pending:
                task_.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            if reset:
                self._abort(client_writer)
                self._abort(upstream_writer)
        except asyncio.CancelledError:
            # close() cancelled us mid-pump; finish quietly so the
            # stream callback does not log the cancellation
            for task_ in (pump_up, pump_down):
                task_.cancel()
        finally:
            for writer in (client_writer, upstream_writer):
                try:
                    writer.close()
                except Exception:
                    pass

    async def _pump_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        rng: PortableRandom,
    ) -> None:
        held: bytes | None = None  # a reordered frame waiting to swap
        try:
            while True:
                try:
                    frame = await read_raw_frame(
                        reader, max_frame=self.max_frame
                    )
                except FrameError:
                    return  # client itself sent garbage; drop the conn
                if frame is None:
                    break
                if rng.random() < self.plan.reset_probability:
                    self.resets += 1
                    raise _Reset()
                if rng.random() < self.plan.torn_frame_probability:
                    self.torn += 1
                    cut = HEADER_BYTES + max(
                        1, (len(frame) - HEADER_BYTES) // 2
                    )
                    await self._forward(writer, frame[:cut])
                    raise _Reset()
                if held is None and (
                    rng.random() < self.plan.reorder_probability
                ):
                    self.reordered += 1
                    held = frame
                    continue
                await self._delayed_forward(writer, frame, rng)
                if rng.random() < self.plan.duplicate_probability:
                    self.duplicated += 1
                    await self._forward(writer, frame)
                if held is not None:
                    await self._forward(writer, held)
                    held = None
            if held is not None:
                # stream ended while holding a reordered frame — flush
                await self._forward(writer, held)
        except (ConnectionError, OSError):
            return
        finally:
            if writer.can_write_eof():
                try:
                    writer.write_eof()
                except (ConnectionError, OSError):
                    pass

    async def _delayed_forward(
        self, writer: asyncio.StreamWriter, frame: bytes, rng: PortableRandom,
    ) -> None:
        delay = self.plan.latency_s
        if self.plan.jitter_s > 0:
            delay += rng.uniform(0.0, self.plan.jitter_s)
        if delay > 0:
            self.delayed += 1
            await asyncio.sleep(delay)
        await self._forward(writer, frame)

    async def _forward(
        self, writer: asyncio.StreamWriter, data: bytes
    ) -> None:
        self.forwarded += 1
        writer.write(data)
        await writer.drain()

    async def _pump_responses(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            return
        finally:
            if writer.can_write_eof():
                try:
                    writer.write_eof()
                except (ConnectionError, OSError):
                    pass

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        transport = writer.transport
        if transport is not None:
            transport.abort()

    def metrics(self) -> dict:
        return {
            "forwarded": self.forwarded,
            "resets": self.resets,
            "torn": self.torn,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "connect_failures": self.connect_failures,
        }

"""Gateway-ingestion benchmarks: the per-request cost of the wire.

Not a paper table — these pin the PR 9 wall-clock ingestion path:

* ``bench_gateway_socket_submit`` — submissions over a Unix socket
  through the full gateway edge (framing, stamp, journal append,
  dispatcher, journal decide, response frame) into the admission
  service; prints req/sec and the p50/p99 round-trip admit latency of
  the last round;
* ``bench_gateway_direct_submit`` — the same workload submitted
  straight to a bare :class:`AdmissionService`, whose scheduler is
  advanced to each wall-clock stamp before the submit at that stamp, as
  the gateway's dispatcher does: the in-process baseline the gateway
  wraps;
* ``bench_gateway_edge_turns`` — one stream client sends requests the
  service rejects outright (no executor, no journal) through an
  in-process gateway, and ``extra_info["loop_turns_per_request"]``
  records the event-loop turns per round trip, client and server
  together, counted by a selector that tallies its polls;
* ``bench_gateway_finish_sweep`` — the shutdown verification
  (``AdmissionGateway.finish``: feed the protocol monitors the events
  the online sweep has not fed yet, then close their books) after
  ``SWEEP_REQUESTS`` in-order requests served through the dispatcher's
  decision path, which flushes the planes into the sweep every
  ``_FLUSH_BATCH`` events.  ``extra_info`` records
  ``retained_bytes_per_request``, tracemalloc's traced memory the
  gateway holds after serving, per served request, and
  ``finish_peak_bytes_per_event``, tracemalloc's traced peak inside
  one ``finish()``, per event its final flush feeds.

The ratio guard in ``BENCH_engine.json``, checked by the
``gateway-soak`` CI job, holds the socket/direct median ratio: the
wire edge pays for framing and the crash journal, but it must stay a
bounded constant factor over a direct submit, never drift into a
second admission service.  Ratios within one pytest-benchmark run are
portable across machines; the absolute milliseconds are not.  The
edge's turn count is a count of work, not a time: no wall-clock timer
fires during the run (the clock watchdog and the service heartbeat
are set far beyond it), so it repeats exactly on any host, and a count
guard holds it.  So do the served gateway's retained bytes and the
final sweep's peak, counts of bytes the program asks for: the served
requests are stamped by a stepped clock, not the wall clock, so they
repeat on any host.
"""

from __future__ import annotations

import asyncio
import gc
import tempfile
import time
import tracemalloc
from pathlib import Path

import repro.gateway.gateway as gateway_module
from repro.gateway import (
    AdmissionGateway,
    GatewayConfig,
    encode_frame,
    parse_ticket,
    read_frame,
    submit_payload,
)
from repro.service import (
    AdmissionService,
    EventRequest,
    ServiceConfig,
    TwinConfig,
    VirtualClock,
    WallClock,
)

from loop_turns import count_loop_turns

SUBMITS = 256
SCALE = 1e-3  # 1 tu = 1 ms, the deployment convention
CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)
#: tu; far beyond any run, so neither the clock watchdog nor the
#: service's heartbeat arms a timer that fires
NEVER = 1e9


def _requests(n: int) -> list[EventRequest]:
    return [
        EventRequest(
            request_id=f"req-{i:05d}",
            cost=0.2 + (i % 5) * 0.1,
            relative_deadline=5000.0,
            source=f"src-{i % 3}",
            hard=(i % 3 != 0),
        )
        for i in range(n)
    ]


def bench_gateway_socket_submit(benchmark):
    """SUBMITS requests over a Unix socket through the gateway edge."""
    requests = _requests(SUBMITS)
    last = {"latencies": [], "elapsed": 0.0}

    async def run():
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            gateway = await AdmissionGateway(
                GatewayConfig(unix_path=str(workdir / "gw.sock")),
                CONFIG,
                clock=WallClock(scale=SCALE),
                journal_path=workdir / "journal.jsonl",
                checkpoint_path=workdir / "checkpoint.jsonl",
            ).start()
            reader, writer = await asyncio.open_unix_connection(
                gateway.address
            )
            admitted = 0
            latencies = []
            started = time.perf_counter()
            try:
                for request in requests:
                    sent = time.perf_counter()
                    writer.write(encode_frame(submit_payload(request)))
                    await writer.drain()
                    ticket = parse_ticket(await read_frame(reader))
                    latencies.append(time.perf_counter() - sent)
                    admitted += ticket.admitted
            finally:
                last["elapsed"] = time.perf_counter() - started
                last["latencies"] = latencies
                writer.close()
                gateway.kill(_journal_crash=False)
            return admitted

    admitted = benchmark(lambda: asyncio.run(run()))
    assert admitted > 0
    lat = sorted(last["latencies"])
    p50 = lat[len(lat) // 2] * 1e3
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))] * 1e3
    rps = len(lat) / last["elapsed"]
    print(f"\n{admitted}/{SUBMITS} admitted over the socket: "
          f"{rps:,.0f} req/sec, admit latency p50 {p50:.3f} ms / "
          f"p99 {p99:.3f} ms")


def bench_gateway_direct_submit(benchmark):
    """The same workload straight into a service whose scheduler is fed
    wall-clock stamps."""
    requests = _requests(SUBMITS)

    def run():
        wall = WallClock(scale=SCALE).anchor()
        scheduler = VirtualClock(wall.start)
        service = AdmissionService(CONFIG, clock=scheduler).start()
        admitted = 0
        try:
            for request in requests:
                stamp = wall.now()
                scheduler.advance(stamp)
                admitted += service.submit(request, at=stamp).admitted
        finally:
            service.kill()
        return admitted

    admitted = benchmark(run)
    assert admitted > 0
    print(f"\n{admitted}/{SUBMITS} admitted on the bare service fed "
          "wall-clock stamps")


def bench_gateway_edge_turns(benchmark):
    """SUBMITS round trips the service rejects outright, with the
    event-loop turns they take counted after the timed rounds."""
    requests = [
        EventRequest(request_id=f"edge-{i:05d}", cost=50.0,
                     relative_deadline=1.0, source=f"src-{i % 3}")
        for i in range(SUBMITS)
    ]

    async def run():
        with tempfile.TemporaryDirectory() as tmp:
            gateway = await AdmissionGateway(
                GatewayConfig(unix_path=str(Path(tmp) / "gw.sock"),
                              watchdog_interval=NEVER),
                ServiceConfig(capacity=2.0, period=2.0, detector=None,
                              twin=TwinConfig(heartbeat=NEVER)),
                clock=WallClock(scale=SCALE),
            ).start()
            reader, writer = await asyncio.open_unix_connection(
                gateway.address
            )
            rejected = 0
            try:
                for request in requests:
                    writer.write(encode_frame(submit_payload(request)))
                    await writer.drain()
                    ticket = parse_ticket(await read_frame(reader))
                    rejected += not ticket.admitted
            finally:
                writer.close()
                gateway.kill(_journal_crash=False)
            return rejected

    assert benchmark(lambda: asyncio.run(run())) == SUBMITS
    rejected, turns = count_loop_turns(lambda: asyncio.run(run()))
    assert rejected == SUBMITS
    benchmark.extra_info["loop_turns_per_request"] = round(
        turns / SUBMITS, 3
    )


SWEEP_REQUESTS = 10_000
#: tu between the served requests' stamps
SWEEP_GAP = 0.25


class _SteppedClock(WallClock):
    """A wall clock that reads the stamp the bench sets."""

    def __init__(self) -> None:
        super().__init__(scale=SCALE)
        self.at = 0.0

    def now(self) -> float:
        return self.at


def _served_gateway(directory: str) -> AdmissionGateway:
    """A gateway that has served SWEEP_REQUESTS requests, one every
    SWEEP_GAP tu, through its dispatcher's decision path (stamp,
    advance the scheduler, submit, flush a full batch into the online
    sweep), every one admitted and completed, then drained."""
    clock = _SteppedClock()
    gateway = AdmissionGateway(
        GatewayConfig(unix_path=str(Path(directory) / "gw.sock")), CONFIG,
        clock=clock,
    )
    gateway.service.start()

    async def serve() -> int:
        admitted = 0
        for i, request in enumerate(_sweep_requests()):
            clock.at = i * SWEEP_GAP
            admitted += (await gateway._decide(request)).admitted
        gateway.clock.stop_driving()
        return admitted

    assert asyncio.run(serve()) == SWEEP_REQUESTS
    gateway.service.drain()
    return gateway


def _sweep_requests() -> list[EventRequest]:
    return [
        EventRequest(
            request_id=f"req-{i:05d}", cost=0.1, relative_deadline=5.0,
            source=f"src-{i % 3}", hard=(i % 3 != 0),
        )
        for i in range(SWEEP_REQUESTS)
    ]


def _unfed(gateway: AdmissionGateway) -> int:
    return sum(len(trace.events) for trace in gateway._planes())


def bench_gateway_finish_sweep(benchmark):
    """``finish()`` of a gateway that has served SWEEP_REQUESTS
    requests, with the memory the served gateway retains per request
    and the traced peak of ``finish()`` per event its final flush feeds
    taken after the timed rounds."""
    horizon = SWEEP_REQUESTS * SWEEP_GAP + 10.0
    with tempfile.TemporaryDirectory() as tmp:
        report, terminals = benchmark.pedantic(
            lambda gateway: gateway.finish(horizon=horizon),
            setup=lambda: ((_served_gateway(tmp),), {}), rounds=5,
        )
        assert report.ok and len(terminals) == SWEEP_REQUESTS
        del report, terminals
        gc.collect()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            gateway = _served_gateway(tmp)
            gc.collect()
            served, _peak = tracemalloc.get_traced_memory()
            tail = _unfed(gateway)
            tracemalloc.reset_peak()
            report, _terminals = gateway.finish(horizon=horizon)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert report.ok and 0 < tail < 2 * gateway_module._FLUSH_BATCH
    benchmark.extra_info["retained_bytes_per_request"] = round(
        (served - before) / SWEEP_REQUESTS, 2
    )
    benchmark.extra_info["finish_peak_bytes_per_event"] = round(
        (peak - served) / tail, 2
    )

"""Seeded wall-clock soak drills for the admission gateway.

``run_gateway_soak`` stands up a real gateway on a Unix socket, pushes
a seeded Poisson arrival schedule through retrying clients — optionally
through the :class:`NetworkFaultProxy` and across one mid-run gateway
kill + journal restore — then closes the books two ways:

* the **protocol sweep**: :class:`GatewayProtocolMonitor` and the
  admission protocol monitor, fed online over the merged (gateway +
  every service incarnation) timeline, must report zero violations;
* the **control replay**: the ingestion journal's (stamp, request)
  pairs are replayed against a fresh service on a ``VirtualClock``
  (``run_control_replay``), and every request's terminal fate —
  (first decision, completed/shed) — must be *identical* to the
  wall-clock run's.  OS jitter may move event timestamps; it must never
  change a fate.

Determinism note: the drill runs the service with the overload
detector, breakers and skew off and an effectively-infinite twin
heartbeat — every remaining decision input is then a pure function of
the journaled stamps, which is exactly what the control replay feeds
back.  The gateway's own robustness machinery (busy/draining edge
rejections, torn-frame accounting, the clock watchdog) stays on and is
verified by the monitors instead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import (
    AdmissionService,
    AdmissionTicket,
    EventRequest,
    ServiceConfig,
    TwinConfig,
    VirtualClock,
)
from repro.sim.trace import ExecutionTrace, TraceEventKind
from repro.workload.rng import PortableRandom

from .faults import NetworkFaultProxy, ProxyFaultPlan
from .gateway import AdmissionGateway, GatewayConfig, load_journal
from .protocol import (
    FrameError,
    parse_ticket,
    read_frame,
    submit_payload,
    write_frame,
)

__all__ = [
    "GatewaySoakConfig",
    "GatewaySoakReport",
    "default_gateway_service_config",
    "soak_requests",
    "run_control_replay",
    "run_gateway_soak",
]


def default_gateway_service_config(
    capacity: float = 2.0, period: float = 2.0
) -> ServiceConfig:
    """The soak's service tuning: every nondeterminism channel off.

    Breakers and the overload detector key decisions off wall-jittered
    observation order; the twin heartbeat would fire on wall delays.
    All are disabled so fates are a pure function of the journaled
    stamps — liveness is the gateway watchdog's job here.
    """
    return ServiceConfig(
        capacity=capacity, period=period,
        breaker=None, detector=None, queue_bound=256,
        twin=TwinConfig(heartbeat=1e9),
    )


@dataclass(frozen=True)
class GatewaySoakConfig:
    """One seeded wall-clock drill."""

    requests: int = 200
    #: mean Poisson arrival rate (per tu)
    rate: float = 2.0
    seed: int = 0
    #: wall seconds per tu (1e-3 = the 1 tu = 1 ms convention)
    scale: float = 1e-3
    sources: int = 3
    cost_range: tuple[float, float] = (0.05, 0.3)
    deadline_factor: float = 60.0
    hard_fraction: float = 0.7
    capacity: float = 2.0
    period: float = 2.0
    max_in_flight: int = 64
    #: kill the gateway when the schedule reaches this nominal tu,
    #: then restore it from journal + checkpoint (None = no kill)
    kill_at: float | None = None
    restart_delay_s: float = 0.05
    proxy: ProxyFaultPlan | None = None
    max_attempts: int = 8
    response_timeout_s: float = 0.75
    retry_backoff_s: float = 0.02

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.sources < 1:
            raise ValueError(f"sources must be >= 1, got {self.sources}")


@dataclass
class GatewaySoakReport:
    """Everything the drill measured, plus the two verdicts."""

    config: GatewaySoakConfig
    submitted: int = 0
    delivered: int = 0
    lost: int = 0
    retries: int = 0
    busy_retries: int = 0
    duplicates_seen: int = 0
    stray_responses: int = 0
    killed: bool = False
    restored: bool = False
    replayed: int = 0
    fates: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    control_fates: dict[str, tuple[str, str | None]] = field(
        default_factory=dict
    )
    fate_mismatches: list[tuple[str, tuple, tuple]] = field(
        default_factory=list
    )
    violations: list = field(default_factory=list)
    decisions: dict[str, int] = field(default_factory=dict)
    proxy: dict | None = None
    gateway_metrics: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def requests_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.delivered / self.wall_seconds

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and not self.fate_mismatches
            and self.lost == 0
            and (self.config.kill_at is None or self.restored)
        )

    def summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "delivered": self.delivered,
            "lost": self.lost,
            "retries": self.retries,
            "busy_retries": self.busy_retries,
            "duplicates_seen": self.duplicates_seen,
            "killed": self.killed,
            "restored": self.restored,
            "replayed": self.replayed,
            "decisions": dict(self.decisions),
            "fate_mismatches": len(self.fate_mismatches),
            "violations": len(self.violations),
            "proxy": self.proxy,
            "wall_seconds": round(self.wall_seconds, 3),
            "requests_per_sec": round(self.requests_per_sec, 1),
            "clean": self.clean,
        }


def soak_requests(
    config: GatewaySoakConfig,
) -> list[tuple[float, EventRequest]]:
    """The seeded arrival schedule: (nominal send tu, request)."""
    rng = PortableRandom(config.seed)
    low, high = config.cost_range
    out: list[tuple[float, EventRequest]] = []
    t = 0.0
    for i in range(config.requests):
        t += rng.exponential(1.0 / config.rate)
        cost = rng.uniform(low, high)
        relative = cost * config.deadline_factor * rng.uniform(0.8, 1.2)
        out.append((t, EventRequest(
            request_id=f"req-{i:05d}",
            cost=cost,
            relative_deadline=relative,
            hard=rng.random() < config.hard_fraction,
            source=f"src-{i % config.sources}",
        )))
    return out


def _fates_from_trace(
    trace: ExecutionTrace,
) -> dict[str, str]:
    """request id -> first terminal kind ('completion' or 'shed')."""
    terminals: dict[str, str] = {}
    for event in trace.events:
        if event.kind in (TraceEventKind.COMPLETION, TraceEventKind.SHED):
            terminals.setdefault(event.subject, event.kind.value)
    return terminals


def _wall_fates(
    journal_ops: list[dict], terminals: dict[str, str]
) -> dict[str, tuple[str, str | None]]:
    """request id -> (first journaled decision, first terminal kind)."""
    fates: dict[str, tuple[str, str | None]] = {}
    for op in journal_ops:
        if op.get("op") != "decided":
            continue
        rid = op["id"]
        if rid in fates:
            continue  # later occurrences are idempotent replays
        decision = op["ticket"]["decision"]
        fates[rid] = (decision, terminals.get(rid))
    return fates


def run_control_replay(
    journal_ops: list[dict], service_config: ServiceConfig, seed: int = 0,
) -> dict[str, tuple[str, str | None]]:
    """Replay a gateway journal on a :class:`VirtualClock`.

    Advances the clock to each ingest op's stamp, then submits its
    request at that stamp — exactly what the gateway does with its wall
    stamps.  Returns request id -> (first decision, terminal kind or
    ``None``) — the fate map the wall-clock run must match exactly.
    """
    clock = VirtualClock(start=service_config.start)
    service = AdmissionService(service_config, clock=clock, seed=seed)
    service.start()
    first: dict[str, AdmissionTicket] = {}
    for op in journal_ops:
        if op.get("op") != "ingest":
            continue
        stamp = op["t"]
        request = EventRequest.from_dict(op["request"])
        clock.advance(stamp)
        ticket = service.submit(request, at=stamp)
        first.setdefault(request.request_id, ticket)
    service.drain()
    terminals = _fates_from_trace(service.trace)
    return {
        rid: (ticket.decision.value, terminals.get(rid))
        for rid, ticket in first.items()
    }


# -- the retrying soak client -------------------------------------------


class _SoakClient:
    """One source's connection: sequential, idempotent, retrying."""

    def __init__(self, endpoint: tuple[str, int] | str,
                 config: GatewaySoakConfig,
                 report: GatewaySoakReport) -> None:
        self.endpoint = endpoint
        self.config = config
        self.report = report
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def _connect(self) -> None:
        if self.writer is not None:
            return
        if isinstance(self.endpoint, str):
            self.reader, self.writer = await asyncio.open_unix_connection(
                self.endpoint
            )
        else:
            host, port = self.endpoint
            self.reader, self.writer = await asyncio.open_connection(
                host, port
            )

    def _disconnect(self) -> None:
        if self.writer is not None:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
        self.reader = self.writer = None

    async def _await_ticket(
        self, rid: str, timeout: float
    ) -> AdmissionTicket:
        assert self.reader is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"no response for {rid}")
            payload = await read_frame(
                self.reader, idle_timeout=remaining, read_timeout=remaining,
            )
            if payload is None:
                raise ConnectionResetError("gateway closed the connection")
            if payload.get("kind") != "ticket":
                continue  # pongs / error frames are not our ticket
            ticket = parse_ticket(payload)
            if ticket.request_id == rid:
                return ticket
            # a stale response to a proxy-duplicated earlier frame
            self.report.stray_responses += 1

    async def submit(self, request: EventRequest) -> AdmissionTicket | None:
        """At-least-once delivery of one request; None = gave up."""
        for attempt in range(1, self.config.max_attempts + 1):
            if attempt > 1:
                self.report.retries += 1
                await asyncio.sleep(self.config.retry_backoff_s * attempt)
            try:
                await self._connect()
                assert self.writer is not None
                await write_frame(self.writer, submit_payload(request))
                ticket = await self._await_ticket(
                    request.request_id, self.config.response_timeout_s
                )
            except (ConnectionError, OSError, TimeoutError, FrameError,
                    asyncio.IncompleteReadError):
                self._disconnect()
                continue
            if ticket.duplicate:
                self.report.duplicates_seen += 1
            if ticket.decision.value == "reject_busy":
                self.report.busy_retries += 1
                continue  # retryable backpressure: same id, try again
            return ticket
        return None


# -- the drill itself ----------------------------------------------------


async def _run_soak_async(
    config: GatewaySoakConfig, workdir: Path
) -> GatewaySoakReport:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_path = workdir / "gateway-journal.jsonl"
    checkpoint_path = workdir / "gateway-checkpoint.jsonl"
    socket_path = str(workdir / "gateway.sock")
    service_config = default_gateway_service_config(
        config.capacity, config.period
    )
    gateway_config = GatewayConfig(
        unix_path=socket_path,
        max_in_flight=config.max_in_flight,
        idle_timeout_s=30.0,
        read_timeout_s=5.0,
    )
    report = GatewaySoakReport(config=config)
    started = time.monotonic()

    holder: dict[str, AdmissionGateway] = {}
    holder["gateway"] = await AdmissionGateway(
        gateway_config, service_config,
        seed=config.seed,
        journal_path=journal_path, checkpoint_path=checkpoint_path,
    ).start()

    proxy: NetworkFaultProxy | None = None
    endpoint: tuple[str, int] | str = socket_path
    if config.proxy is not None and config.proxy.active:
        proxy = await NetworkFaultProxy(
            config.proxy, socket_path,
            listen_unix_path=str(workdir / "proxy.sock"),
            seed=config.seed,
        ).start()
        endpoint = proxy.address  # type: ignore[assignment]

    schedule = soak_requests(config)
    per_source: dict[int, list[tuple[float, EventRequest]]] = {}
    for nominal, request in schedule:
        idx = int(request.source.split("-")[1])
        per_source.setdefault(idx, []).append((nominal, request))

    pace_origin = time.monotonic()

    async def pace_to(nominal: float) -> None:
        target = pace_origin + nominal * config.scale
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def client_task(entries: list[tuple[float, EventRequest]]) -> None:
        client = _SoakClient(endpoint, config, report)
        try:
            for nominal, request in entries:
                await pace_to(nominal)
                report.submitted += 1
                ticket = await client.submit(request)
                if ticket is None:
                    report.lost += 1
                else:
                    report.delivered += 1
                    value = ticket.decision.value
                    report.decisions[value] = (
                        report.decisions.get(value, 0) + 1
                    )
        finally:
            client._disconnect()

    async def kill_task() -> None:
        assert config.kill_at is not None
        await pace_to(config.kill_at)
        holder["gateway"].kill()
        report.killed = True
        await asyncio.sleep(config.restart_delay_s)
        restored = await AdmissionGateway.restore(
            gateway_config, service_config,
            journal_path=journal_path, checkpoint_path=checkpoint_path,
            scale=config.scale, seed=config.seed,
            predecessor=holder["gateway"],
        )
        holder["gateway"] = restored
        report.restored = True
        report.replayed = restored.replayed

    tasks = [
        asyncio.create_task(client_task(entries))
        for _idx, entries in sorted(per_source.items())
    ]
    if config.kill_at is not None:
        tasks.append(asyncio.create_task(kill_task()))
    await asyncio.gather(*tasks)

    gateway = holder["gateway"]
    gateway.request_shutdown()
    assert gateway.terminated is not None
    await gateway.terminated.wait()
    if proxy is not None:
        await proxy.close()
        report.proxy = proxy.metrics()

    verdict, terminals = gateway.finish()
    report.violations = list(verdict.violations)
    journal_ops = load_journal(journal_path)
    report.fates = _wall_fates(journal_ops, terminals)
    report.gateway_metrics = gateway.metrics()
    report.wall_seconds = time.monotonic() - started

    control = run_control_replay(journal_ops, service_config, config.seed)
    report.control_fates = control
    ids = sorted(set(report.fates) | set(control))
    for rid in ids:
        wall = report.fates.get(rid, ("<missing>", None))
        ctrl = control.get(rid, ("<missing>", None))
        if wall != ctrl:
            report.fate_mismatches.append((rid, wall, ctrl))
    return report


def run_gateway_soak(
    config: GatewaySoakConfig, workdir: Path | str
) -> GatewaySoakReport:
    """Run one seeded wall-clock soak drill end to end.

    Sets up journal/checkpoint/sockets under ``workdir``, drives the
    schedule (through the fault proxy and across a kill/restore when
    configured), drains, verifies the merged timeline, and cross-checks
    every fate against the ``VirtualClock`` control replay.
    """
    return asyncio.run(_run_soak_async(config, Path(workdir)))

"""The benchmark's three workloads: op lists, ops, gates and digests.

Every run does a fixed amount of work.  The seed fixes the op list and
``--seconds`` fixes its length through the ``*_PER_S`` constants below,
which were sized on a 2-vCPU host so that a run measures about that many
seconds; no run stops on a time budget.  Each op's result is checked
outside its timed region, and folded into the workload's output digest.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.experiments import campaign
from repro.experiments.tables import shape_checks
from repro.gateway import (
    FrameError,
    GatewaySoakConfig,
    default_gateway_service_config,
    encode_frame,
    load_journal,
    parse_ticket,
    read_frame,
    run_control_replay,
    soak_requests,
    submit_payload,
)
from repro.service import EventRequest
from repro.service.storm import StormConfig, run_service_storm
from repro.workload.generator import PAPER_SETS

from perfbench.spans import now_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ops per second of ``--seconds`` (see the module docstring)
CAMPAIGN_OPS_PER_S = 18
STORM_OPS_PER_S = 11
GATEWAY_REQUESTS_PER_S = 2500
#: requests per second of the traced run's journaled gateway pass: its
#: fsyncs make a request about five times dearer
JOURNALED_REQUESTS_PER_S = 300

#: set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 5

#: the host reference loop: a fixed pure-Python loop timed after every
#: op (between gateway segments), while no request is outstanding
REF_ITERATIONS = 25_000
#: the gateway's request list runs in this many closed-loop segments
GATEWAY_SEGMENTS = 64
#: the reference loop's time on the nominal host: end-to-end figures
#: are scaled to a host that runs the loop this fast (see host_factor)
REF_NOMINAL_MS = 2.0

#: the paper's master seed: ops 0-5 at this seed are Tables 2-5
PAPER_SEED = 1983
#: sha256 over the six Tables 2-5 sets at PAPER_SEED, as digested by
#: PaperCampaign.check
PINNED_TABLES_DIGEST = (
    "898803452e4dd236f1648ca4872916a643428e2153f086fad814c9961cce5157"
)

#: the CI service-soak skew: twin divergences trigger repairs
STORM_SKEW = {"drift_ppm": 40000.0, "overrun_factor": 1.6,
              "overrun_probability": 0.5}
#: StormReport fields that read the wall clock, left out of the digest
_STORM_WALL_KEYS = ("admissions_per_sec", "wall_seconds", "replan_latency_s")

#: seconds a gateway request may wait for its ticket
REQUEST_TIMEOUT_S = 10.0
#: edge refusals: answered by the gateway, never decided by Section 7
_EDGE_REFUSALS = ("reject_busy", "reject_draining")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ref_loop_ms() -> float:
    start = time.perf_counter_ns()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter_ns() - start) / 1e6


def host_factor(before_ms: float, after_ms: float) -> float:
    """How much slower than nominal the host ran between two samples of
    the reference loop.

    The shared host's CPU speed drifts: the loop takes about 1.75 or
    2.7 ms depending on the moment, and its median over 5 to 40 s
    windows spreads by 28-30% (quartile distance over median).  Every
    timed op, gateway segment and set-up sits between two samples, and
    its time is divided by this factor.  On eight identical
    paper_campaign runs that cut the quartile spread of op latency p50
    from 18% to 5%, and the range of p90 from 17% to 8%.  The loop only
    tracks CPU speed, so it corrects the gateway's two-process socket
    path less well.
    """
    return (before_ms + after_ms) / (2.0 * REF_NOMINAL_MS)


@dataclass
class Outcome:
    """What one pass over a workload's op list measured and checked.

    Each time is kept as measured and with the host factor it ran
    under; ``nominal_*`` are the times scaled to the nominal host.
    """

    attempted: int = 0
    failed: int = 0
    #: work units completed by ops that passed their checks
    units: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    #: units per second of each block of ops, measured and nominal;
    #: their medians are the throughput, so a short stall moves it little
    block_rates: list[float] = field(default_factory=list)
    nominal_block_rates: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    #: gate failures; any makes the run incorrect
    problems: list[str] = field(default_factory=list)
    #: exact counts summed over ops (per-layer explanations)
    counts: dict[str, float] = field(default_factory=dict)
    #: the gateway server's peak RSS (MB) and round-trip attribution
    peak_rss_mb: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return median(self.block_rates)

    @property
    def nominal_throughput(self) -> float:
        return median(self.nominal_block_rates)

    @property
    def nominal_latencies_ms(self) -> list[float]:
        return [ms / f for ms, f in zip(self.latencies_ms, self.factors)]

    def end_block(self, units: float, busy_ns: int, nominal_ns: float) -> None:
        if busy_ns:
            self.block_rates.append(units / (busy_ns / 1e9))
            self.nominal_block_rates.append(units / (nominal_ns / 1e9))

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- in-process workloads ----------------------------------------------------


class InProcessWorkload:
    """A closed loop of ops in this process, one at a time."""

    name = ""
    #: ops per throughput block
    block = 1

    def ops(self, seed: int, seconds: int) -> list:
        raise NotImplementedError

    def execute(self, item):
        """One op; the only timed code."""
        raise NotImplementedError

    def check(self, item, result, out: Outcome) -> float | None:
        """Gate and digest one result; its work units, or None if bad."""
        raise NotImplementedError

    def prepare(self, out: Outcome) -> None:
        """Untimed gates that do not depend on the seed."""

    def run(self, items: list, deadline: float, recorder=None) -> Outcome:
        out = Outcome(ref_ms=[ref_loop_ms()])
        block_units, block_ns, block_nominal_ns = 0.0, 0, 0.0
        for index, item in enumerate(items):
            out.attempted += 1
            if time.monotonic() > deadline:
                out.fail(f"op {index} not run: the run's time limit passed")
                continue
            if recorder is not None:
                recorder.op = index
            start = time.perf_counter_ns()
            try:
                result = self.execute(item)
            except Exception as exc:   # an op that crashes counts as failed
                out.fail(f"op {index} {item!r} raised {exc!r}")
                continue
            elapsed = time.perf_counter_ns() - start
            out.ref_ms.append(ref_loop_ms())
            factor = host_factor(out.ref_ms[-2], out.ref_ms[-1])
            out.latencies_ms.append(elapsed / 1e6)
            out.factors.append(factor)
            units = self.check(item, result, out)
            if units is None:
                out.failed += 1
            else:
                out.units += units
                block_units += units
            block_ns += elapsed
            block_nominal_ns += elapsed / factor
            if (index + 1) % self.block == 0 or index + 1 == len(items):
                out.end_block(block_units, block_ns, block_nominal_ns)
                block_units, block_ns, block_nominal_ns = 0.0, 0, 0.0
        return out


class PaperCampaign(InProcessWorkload):
    """One paper set per op: ``run_campaign(sets=(p,))``, default knobs."""

    name = "paper_campaign"
    #: two master seeds: every block holds each paper set twice
    block = 12

    def ops(self, seed: int, seconds: int) -> list[tuple[int, int]]:
        n = 6 * max(1, round(seconds * CAMPAIGN_OPS_PER_S / 6))
        return [(i % 6, seed + i // 6) for i in range(n)]

    def execute(self, item):
        set_index, master = item
        params = replace(PAPER_SETS[set_index], seed=master)
        return campaign.run_campaign(sets=(params,))

    def _rows(self, item, result, out: Outcome):
        set_index, master = item
        params = PAPER_SETS[set_index]
        key = (params.task_density, params.std_deviation)
        rows = {}
        for arm in campaign.ARMS:
            metrics = result.tables.get(arm, {}).get(key)
            if metrics is None:
                out.problems.append(f"op {item}: no {arm} row")
                return None
            if not (0.0 <= metrics.air <= 1.0 and 0.0 <= metrics.asr <= 1.0
                    and (metrics.air == 0.0 or not arm.endswith("_sim"))):
                out.problems.append(
                    f"op {item}: {arm} AIR={metrics.air} ASR={metrics.asr}"
                )
                return None
            runs = ";".join(
                f"{r.released},{r.served},{r.interrupted},"
                f"{r.average_response_time!r}" for r in metrics.runs
            )
            out.digest.update(
                f"{arm} {key} {master} {metrics.aart!r} {metrics.air!r} "
                f"{metrics.asr!r} {runs}\n".encode()
            )
            rows[arm] = (key, metrics)
        return rows

    def check(self, item, result, out: Outcome) -> float | None:
        if self._rows(item, result, out) is None:
            return None
        return len(campaign.ARMS) * PAPER_SETS[item[0]].nb_generation

    def prepare(self, out: Outcome) -> None:
        """The six ops at the paper's seed must give the pinned Tables
        2-5 and every shape check must hold."""
        pinned = Outcome()
        tables: dict = {arm: {} for arm in campaign.ARMS}
        for set_index in range(6):
            item = (set_index, PAPER_SEED)
            rows = self._rows(item, self.execute(item), pinned)
            for arm, (key, metrics) in (rows or {}).items():
                tables[arm][key] = metrics
        out.problems.extend(pinned.problems)
        if pinned.digest.hexdigest() != PINNED_TABLES_DIGEST:
            out.problems.append(
                f"Tables 2-5 digest {pinned.digest.hexdigest()} != pinned "
                f"{PINNED_TABLES_DIGEST}"
            )
        if not pinned.problems:
            out.problems.extend(
                f"shape check fails: {check.description}"
                for check in shape_checks(tables) if not check.holds
            )


class AdmissionStorm(InProcessWorkload):
    """One seeded skewed service storm per op (the CI soak parameters)."""

    name = "admission_storm"
    block = 6

    def ops(self, seed: int, seconds: int) -> list[int]:
        return [seed + k for k in range(max(1, round(seconds * STORM_OPS_PER_S)))]

    def execute(self, item):
        return run_service_storm(StormConfig(seed=item, **STORM_SKEW))

    def check(self, item, report, out: Outcome) -> float | None:
        payload = {key: value for key, value in report.to_dict().items()
                   if key not in _STORM_WALL_KEYS}
        out.digest.update(json.dumps(payload, sort_keys=True).encode())
        decisions = sum(report.decisions.values())
        out.count("service.decisions", decisions)
        out.count("service.admits", report.admitted)
        out.count("service.replans", sum(report.replans.values()))
        out.count("service.divergences", sum(report.divergences.values()))
        out.count("service.client_retries", report.client_retries)
        if not report.clean or report.hard_misses or report.killed:
            out.problems.append(
                f"storm seed {item}: {len(report.violations)} violation(s), "
                f"{report.hard_misses} hard miss(es)"
                + (f": {report.violations[0]}" if report.violations else "")
            )
            return None
        return decisions


# -- the gateway ---------------------------------------------------------------


class GatewayServer:
    """``repro.experiments.runner gateway --listen`` in a child process.

    With ``journal`` the server gets ``--soak-dir``: its ingestion
    journal and service checkpoint are written, and fsynced, on disk.
    """

    def __init__(self, directory: Path, seed: int, *, journal: bool = False,
                 spans_path: Path | None = None) -> None:
        directory.mkdir(parents=True)
        self.directory = directory
        self.seed = seed
        self.journal = journal
        # relative to ROOT (the child's cwd): a Unix socket path holds
        # at most 107 bytes, and the checkout may sit deep in the tree
        relative = directory.resolve().relative_to(ROOT)
        self.socket = str(relative / "gw.sock")
        args = ["gateway", "--listen", f"unix:{self.socket}",
                "--soak-seed", str(seed)]
        if journal:
            args += ["--soak-dir", str(relative)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.experiments.runner", *args]
        else:
            command = [sys.executable, str(HERE / "gateway_server.py"),
                       str(spans_path), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        self._stderr = open(directory / "stderr.txt", "w")
        self._stopped: tuple[int, dict, float] | None = None
        self.spawned_ns = now_ns()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )

    def wait_listening(self, timeout: float = 60.0) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening" not in line:
            self.stop()
            raise RuntimeError(
                f"gateway did not start ({line.strip()!r}): {self.stderr_tail()}"
            )

    def stderr_tail(self) -> str:
        text = (self.directory / "stderr.txt").read_text()
        return text.strip().splitlines()[-1] if text.strip() else ""

    def stop(self, timeout: float = 60.0) -> tuple[int, dict, float]:
        """SIGTERM (graceful drain) and reap: exit code, the metrics the
        server printed, its peak RSS in MB.  Idempotent."""
        if self._stopped is not None:
            return self._stopped
        rss_mb = 0.0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            give_up = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > give_up:
                    self.proc.kill()
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            rss_mb = usage.ru_maxrss / 1024
        text = self.proc.stdout.read()
        self.proc.stdout.close()
        self._stderr.close()
        try:
            metrics = json.loads(text) if text.strip() else {}
        except ValueError:
            metrics = {}
        self._stopped = (self.proc.returncode, metrics, rss_mb)
        return self._stopped

    def control_fates(self, replies: dict) -> dict:
        """id -> (decision, end) of a fresh service on a VirtualClock
        fed the (stamp, request) pairs this server decided: read from
        its journal, or else from the stamps its tickets carry (the
        dispatcher is serial, so stamp order is decision order)."""
        if self.journal:
            ops = load_journal(self.directory / "gateway-journal.jsonl")
        else:
            decided = sorted((reply.stamp, rid, reply.request)
                             for rid, reply in replies.items()
                             if reply.decision is not None
                             and reply.decision not in _EDGE_REFUSALS)
            ops = [{"op": "ingest", "t": stamp, "request": request.to_dict()}
                   for stamp, _rid, request in decided]
        return run_control_replay(ops, default_gateway_service_config(),
                                  self.seed)


@dataclass
class Reply:
    """What one request got: its ticket's decision and stamp, or an error."""

    request: EventRequest
    send_ns: int = 0
    received_ns: int = 0
    decision: str | None = None
    stamp: float = 0.0
    error: str | None = None


class _Client:
    """One connection; sends the next request once the last is answered."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def submit(self, request: EventRequest) -> Reply:
        reply = Reply(request)
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_unix_connection(
                    self.path
                )
            reply.send_ns = now_ns()
            self.writer.write(encode_frame(submit_payload(request)))
            await self.writer.drain()
            payload = await asyncio.wait_for(read_frame(self.reader),
                                             REQUEST_TIMEOUT_S)
            reply.received_ns = now_ns()
            if payload is None:
                raise ConnectionResetError("gateway closed the connection")
            ticket = parse_ticket(payload)
            if ticket.request_id != request.request_id:
                raise FrameError(f"ticket for {ticket.request_id}")
            reply.decision = ticket.decision.value
            reply.stamp = ticket.submitted_at
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                FrameError) as exc:
            self.close()
            reply.error = f"{type(exc).__name__}: {exc}"
        return reply

    def close(self) -> None:
        if self.writer is not None:
            self.writer.transport.abort()
        self.reader = self.writer = None


def closed_loop(path: str, requests: list[EventRequest], deadline: float,
                connections: int = 2, segments: int = 1
                ) -> tuple[dict[str, Reply], Outcome]:
    """Drive ``requests`` over ``connections`` closed-loop connections.

    Connection ``c`` sends requests ``c, c + connections, ...``, each as
    soon as the previous ticket arrives.  The list runs in ``segments``
    pieces; each piece is one throughput block, and the host reference
    loop is timed after each.
    """
    replies: dict[str, Reply] = {}
    out = Outcome(attempted=len(requests), ref_ms=[ref_loop_ms()])
    lanes = [requests[c::connections] for c in range(connections)]

    async def lane(client: _Client, part: list[EventRequest]) -> None:
        for request in part:
            if time.monotonic() > deadline:
                replies[request.request_id] = Reply(
                    request, error="not sent: the run's time limit passed")
                continue
            replies[request.request_id] = await client.submit(request)

    async def drive() -> None:
        clients = [_Client(path) for _ in range(connections)]
        try:
            for s in range(segments):
                pieces = [part[len(part) * s // segments:
                               len(part) * (s + 1) // segments]
                          for part in lanes]
                start = now_ns()
                await asyncio.gather(*(lane(client, piece) for client, piece
                                       in zip(clients, pieces)))
                busy = now_ns() - start
                out.ref_ms.append(ref_loop_ms())
                factor = host_factor(out.ref_ms[-2], out.ref_ms[-1])
                tickets = 0
                for piece in pieces:
                    for request in piece:
                        reply = replies[request.request_id]
                        if reply.error is None:
                            tickets += 1
                            out.latencies_ms.append(
                                (reply.received_ns - reply.send_ns) / 1e6)
                            out.factors.append(factor)
                out.end_block(tickets, busy, busy / factor)
        finally:
            for client in clients:
                client.close()

    asyncio.run(drive())
    return replies, out


def gate_replies(replies: dict[str, Reply], warm_up: Reply | None,
                 fates: dict, out: Outcome) -> None:
    """Count tickets against the control replay's ``fates``.

    A workload request that got no ticket, an edge refusal or a ticket
    the replay disagrees with is a failed op; a Section 7 rejection the
    replay agrees with is a correct answer.  A bad warm-up ticket fails
    the run instead.  Decisions follow wall-clock stamps, so two passes
    over one request list may decide differently and both be right: the
    digest covers each request and its verdict, not its decision.
    """
    def problem(rid: str, reply: Reply) -> str | None:
        decided = fates.get(rid, ("nothing",))[0]
        if reply.error is not None:
            return f"{rid}: {reply.error}"
        if reply.decision in _EDGE_REFUSALS:
            return f"{rid}: refused at the edge ({reply.decision})"
        if decided != reply.decision:
            return (f"{rid}: ticket {reply.decision} but the control replay "
                    f"decided {decided}")
        return None

    if warm_up is not None:
        bad = problem(warm_up.request.request_id, warm_up)
        if bad:
            out.problems.append(bad)
    for rid, reply in sorted(replies.items()):
        bad = problem(rid, reply)
        request = json.dumps(reply.request.to_dict(), sort_keys=True)
        out.digest.update(f"{request} {'failed' if bad else 'ok'}\n"
                          .encode())
        if bad:
            out.fail(bad)
        else:
            out.units += 1


class GatewayClosedLoop:
    """Two closed-loop connections against a gateway child process.

    The measured server runs without ``--soak-dir``, so without its
    on-disk journal: with it, a round trip is about 75% fsync, and fsync
    latency on the shared disk drifted 2x within minutes (six 30 s
    runs spread 24% in throughput and 31% in p90), which no run length
    averages out.  The traced run adds a journaled pass, which measures
    the journal's share of a round trip and gates its tickets against
    the replay of the real journal.
    """

    name = "gateway_closed_loop"

    def __init__(self) -> None:
        #: every server started, so a failed run can still stop them all
        self.servers: list[GatewayServer] = []

    def ops(self, seed: int, seconds: int) -> list[EventRequest]:
        n = max(2, round(seconds * GATEWAY_REQUESTS_PER_S))
        return [request for _t, request in
                soak_requests(GatewaySoakConfig(seed=seed, requests=n))]

    def start(self, directory: Path, seed: int, warm_up_id: str, **server
              ) -> tuple[GatewayServer, float, Reply]:
        """Spawn a server; returns it, the seconds from spawn to the
        warm-up request's ticket, and that request's reply."""
        server = GatewayServer(directory, seed, **server)
        self.servers.append(server)
        server.wait_listening()
        warm_up = EventRequest(request_id=warm_up_id, cost=0.1,
                               relative_deadline=10.0, source="warm-up")
        replies, _timing = closed_loop(
            server.socket, [warm_up], time.monotonic() + 60.0, connections=1)
        reply = replies[warm_up_id]
        received = reply.received_ns or now_ns()
        return server, (received - server.spawned_ns) / 1e9, reply

    def finish(self, server: GatewayServer, replies: dict[str, Reply],
               warm_up: Reply, out: Outcome) -> dict:
        """Stop the server and gate every ticket it sent against the
        control replay; returns the server's exit metrics.  An unclean
        exit (the protocol monitors) fails the run."""
        code, metrics, out.peak_rss_mb = server.stop()
        if code != 0:
            out.problems.append(
                f"gateway exited {code} (protocol monitors): "
                f"{server.stderr_tail()}"
            )
        everything = {warm_up.request.request_id: warm_up, **replies}
        gate_replies(replies, warm_up, server.control_fates(everything), out)
        return metrics

    def run(self, server: GatewayServer, requests: list[EventRequest],
            deadline: float) -> tuple[Outcome, dict[str, Reply]]:
        replies, out = closed_loop(server.socket, requests, deadline,
                                   segments=GATEWAY_SEGMENTS)
        return out, replies


WORKLOADS = {
    workload.name: workload
    for workload in (PaperCampaign(), AdmissionStorm(), GatewayClosedLoop())
}

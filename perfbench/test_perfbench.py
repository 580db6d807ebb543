"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at a tiny size in both modes, checks the output
contract against ``BENCHMARK.json``, and checks that failures are
counted: a refused or dropped gateway request, and a storm with an
injected hard-deadline violation.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.gateway import read_frame, ticket_payload, write_frame  # noqa: E402
from repro.gateway.protocol import parse_request  # noqa: E402
from repro.service import AdmissionTicket, Decision  # noqa: E402
from repro.service.service import AdmissionService  # noqa: E402

from perfbench import spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert any(line.startswith(f"digest {workload} ") for line in lines)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "paper_campaign", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_injected_storm_violation_counts_as_failed(monkeypatch):
    storm = workloads.AdmissionStorm()
    assert storm.run([5], time.monotonic() + 60).failed == 0
    # let a hard request run past its deadline instead of being cut
    monkeypatch.setattr(
        AdmissionService, "_cut",
        lambda self, now, job, actual, served:
            self._complete(now, job, actual, served),
    )
    out = storm.run([5], time.monotonic() + 60)
    assert out.failed == 1 and out.units == 0
    assert "hard-deadline-miss" in out.problems[0]


class _FakeGateway:
    """A Unix-socket peer that refuses every request or drops it."""

    def __init__(self, path: Path, refuse: bool) -> None:
        self.path, self.refuse = str(path), refuse
        self.loop = asyncio.new_event_loop()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(asyncio.start_unix_server(
            self._handle, path=self.path))
        self.ready.set()
        self.loop.run_forever()

    async def _handle(self, reader, writer) -> None:
        while (payload := await read_frame(reader)) is not None:
            if not self.refuse:
                writer.transport.abort()
                return
            request = parse_request(payload)
            await write_frame(writer, ticket_payload(AdmissionTicket(
                request.request_id, Decision.REJECT_BUSY, 0.0)))

    def __enter__(self) -> "_FakeGateway":
        self.thread.start()
        assert self.ready.wait(10)
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()


@pytest.mark.parametrize("refuse", [True, False], ids=["refused", "dropped"])
def test_refused_or_dropped_gateway_requests_count_as_failed(tmp_path,
                                                             refuse):
    requests = workloads.GatewayClosedLoop().ops(seed=1, seconds=1)[:6]
    with _FakeGateway(tmp_path / "fake.sock", refuse):
        replies, out = workloads.closed_loop(
            str(tmp_path / "fake.sock"), requests, time.monotonic() + 30)
    workloads.gate_replies(replies, None, {}, out)
    assert out.attempted == 6 and out.failed == 6 and out.units == 0


def test_wrappers_leave_identity_checked_hooks_alone():
    from repro.sim import engine
    from repro.sim.schedulers.fp import FixedPriorityPolicy

    recorder = spans.SpanRecorder()
    restore = spans.install(recorder,
                            spans.IN_PROCESS_LAYERS + spans.SERVER_LAYERS)
    try:
        assert engine.PeriodicTaskEntity.release is engine._EXACT_RELEASE
        assert engine.PeriodicTaskEntity.consume is engine._EXACT_CONSUME
        assert FixedPriorityPolicy.select is FixedPriorityPolicy._exact_select
    finally:
        restore()
    forbidden = spans.Layer("repro.sim.engine", "PeriodicTaskEntity",
                            "release", "x")
    with pytest.raises(ValueError):
        spans.install(recorder, [forbidden])
    assert engine.PeriodicTaskEntity.release is engine._EXACT_RELEASE


def test_round_trip_attribution_sums_to_the_round_trip():
    # one round trip [0, 100]: a submit [5, 40] holding a journal append
    # [10, 30], a read whose wait ends at 50 and decode ends at 55, a
    # write [60, 70]; everything else is unattributed
    server = [
        ["service.submit", 5, 40, -1, "r", 0],
        ["gateway.journal", 10, 30, 0, "r", 0],
        ["gateway.read", 0, 55, -1, "r", 0],
        ["gateway.read_wait", 0, 50, 2, None, 0],
        ["gateway.framing", 60, 70, -1, "r", 0],
    ]
    split = spans.gateway_window_metrics(server, {"r": (0, 100)})
    ns = {key: value * 1e6 for key, value in split.items()}
    assert ns["journal_ms"] == pytest.approx(20)
    assert ns["service_ms"] == pytest.approx(15)
    assert ns["framing_ms"] == pytest.approx(15)
    assert ns["unattributed_ms"] == pytest.approx(50)
    assert ns["round_trip_ms"] == pytest.approx(100)


def test_clock_self_time_excludes_work_of_other_tasks():
    trace = [
        ["service.clock", 0, 100, -1, 0, 0],
        ["service.submit", 10, 20, -1, 0, 0],
        ["service.twin", 12, 15, 1, 0, 0],
        ["service.twin", 30, 35, -1, 0, 0],
    ]
    figures = spans.layer_metrics(trace, ops=1)
    assert figures["service.clock_self_ms"] * 1e6 == pytest.approx(85)
    assert figures["service.twin_ms"] * 1e6 == pytest.approx(8)

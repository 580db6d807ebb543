"""Graceful shutdown and crash recovery (PR 6 satellite).

Drain must give every in-flight admitted event exactly one terminal
fate — completion or an explicit SHED — never a silent drop.  A killed
service must restore from its JSONL checkpoint with a byte-identical
twin state hash and finish the surviving work cleanly.
"""

from __future__ import annotations

import pytest

from repro.service import (
    AdmissionService,
    Decision,
    EventRequest,
    ServiceConfig,
    TwinConfig,
    VirtualClock,
    replay_ops,
)
from repro.service.checkpoint import CheckpointError, CheckpointLog
from repro.sim.trace import TraceEventKind

CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)


def _req(rid: str, cost: float = 0.8, deadline: float = 40.0,
         **kw) -> EventRequest:
    return EventRequest(request_id=rid, cost=cost,
                        relative_deadline=deadline, **kw)


def _service(clock: VirtualClock, **kw) -> AdmissionService:
    return AdmissionService(CONFIG, clock=clock, **kw).start()


class TestDrain:
    def test_every_inflight_event_gets_one_terminal(self):
        clock = VirtualClock()
        service = _service(clock)
        for i in range(6):
            ticket = service.submit(_req(f"e{i}"))
            assert ticket.admitted
        report = service.drain()
        assert report.completed == 6 and report.shed == 0
        assert service.planner.backlog == 0

        # exactly one terminal per released id, no silent drops
        events = service.trace.events
        released = {e.subject for e in events
                    if e.kind is TraceEventKind.RELEASE}
        terminals = [e.subject for e in events
                     if e.kind in (TraceEventKind.COMPLETION,
                                   TraceEventKind.SHED)]
        assert sorted(terminals) == sorted(released)
        verification = service.finish()
        assert verification is not None and not verification.violations

    def test_max_wait_sheds_far_future_work_explicitly(self):
        clock = VirtualClock()
        service = _service(clock)
        near = service.submit(_req("near", cost=0.5))
        # a queue of work whose settle time exceeds the drain budget
        far_ids = []
        for i in range(8):
            ticket = service.submit(
                _req(f"far{i}", cost=1.5, deadline=120.0)
            )
            assert ticket.admitted
            far_ids.append(ticket.request_id)
        report = service.drain(max_wait=3.0)
        assert report.completed >= 1          # near work finished
        assert report.shed >= 1               # far work explicitly shed
        assert report.completed + report.shed == 9
        events = service.trace.events
        cutoff_sheds = {e.subject for e in events
                        if e.kind is TraceEventKind.SHED
                        and "drain cutoff" in e.detail}
        assert cutoff_sheds                   # the shed is attributed
        terminals = [e.subject for e in events
                     if e.kind in (TraceEventKind.COMPLETION,
                                   TraceEventKind.SHED)]
        assert len(terminals) == 9            # nothing silently dropped
        assert len(set(terminals)) == 9

    def test_draining_rejects_new_submissions(self):
        clock = VirtualClock()
        service = _service(clock)
        service.submit(_req("inflight"))
        late = []
        # a submission arriving while the drain advances the clock
        clock.call_at(0.1, lambda: late.append(service.submit(_req("late"))))
        report = service.drain()
        assert [ticket.decision for ticket in late] == [
            Decision.REJECT_DRAINING
        ]
        assert not late[0].retryable
        assert report.completed == 1

    def test_drain_is_idempotent(self):
        clock = VirtualClock()
        service = _service(clock)
        service.submit(_req("a"))
        first = service.drain()
        second = service.drain()
        assert first.completed == 1
        assert second.completed == 0 and second.shed == 0


class TestDrainHousekeepingRace:
    def test_no_housekeeping_ops_after_the_drain_cutoff(self, tmp_path):
        """The drain/heartbeat race (PR 8 satellite): once ``drain()``
        has written its cutoff op, a housekeeping tick waking during the
        drain advance must not append ``heartbeat_miss`` ops behind it —
        a restore would otherwise replay divergences that post-date the
        shutdown."""
        path = tmp_path / "service.jsonl"
        config = ServiceConfig(
            capacity=2.0, period=2.0, detector=None,
            twin=TwinConfig(heartbeat=1.0),
        )

        clock = VirtualClock()
        service = AdmissionService(config, clock=clock,
                                   checkpoint_path=path)
        service.start()
        # slow work keeps events in flight long past the heartbeat
        # window, so ticks during the drain advance WOULD fire
        # heartbeat-miss divergences without the suppression
        for i in range(4):
            assert service.submit(
                _req(f"slow{i}", cost=1.5, deadline=120.0)
            ).admitted
        beats_before = service.heartbeats
        report = service.drain()
        assert report.completed + report.shed == 4
        assert service.heartbeats == beats_before  # counter froze
        ops = CheckpointLog(path).load()
        drain_index = next(
            i for i, op in enumerate(ops) if op["op"] == "drain"
        )
        tail = [op["op"] for op in ops[drain_index + 1:]]
        assert "heartbeat_miss" not in tail

    def test_draining_housekeeper_exits_promptly(self):
        clock = VirtualClock()
        service = _service(clock)
        service.submit(_req("a"))
        service.drain()
        assert service._housekeeper is None
        frozen = service.heartbeats
        clock.advance(clock.now() + 50.0)
        assert service.heartbeats == frozen


class TestCheckpointRestart:
    def test_kill_restore_twin_hash_identical(self, tmp_path):
        path = tmp_path / "service.jsonl"

        clock = VirtualClock()
        service = AdmissionService(CONFIG, clock=clock,
                                   checkpoint_path=path, seed=7).start()
        for i in range(5):
            assert service.submit(_req(f"e{i}", deadline=60.0)).admitted
        clock.advance(1.5)        # some work completes pre-kill
        live_hash = service.twin.state_hash()
        live_counters = dict(service.twin.counters)
        service.kill()

        # replaying the log off-line reproduces the twin byte-for-byte
        log = CheckpointLog(path)
        _planner, twin, _header = replay_ops(log.load())
        assert twin.state_hash() == live_hash
        assert dict(twin.counters) == live_counters

        service = AdmissionService.restore(path)
        assert service.twin.state_hash() == live_hash
        resumed = service.planner.backlog
        report = service.drain()
        assert report.completed + report.shed == resumed
        verification = service.finish()
        assert verification is not None and not verification.violations

    def test_restore_refuses_missing_log(self, tmp_path):
        with pytest.raises(CheckpointError):
            AdmissionService.restore(tmp_path / "absent.jsonl")

    def test_fresh_service_refuses_existing_log(self, tmp_path):
        path = tmp_path / "service.jsonl"

        service = AdmissionService(CONFIG, clock=VirtualClock(),
                                   checkpoint_path=path).start()
        service.submit(_req("a"))
        service.drain()
        with pytest.raises(CheckpointError):
            AdmissionService(CONFIG, checkpoint_path=path)

    def test_duplicate_submit_after_restore_is_idempotent(self, tmp_path):
        path = tmp_path / "service.jsonl"

        service = AdmissionService(CONFIG, clock=VirtualClock(),
                                   checkpoint_path=path).start()
        assert service.submit(_req("dup", deadline=60.0)).admitted
        service.kill()

        service = AdmissionService.restore(path)
        again = service.submit(_req("dup", deadline=60.0))
        # the id is still in flight: no double admission
        assert again.decision is not Decision.ADMIT or again.duplicate
        assert service.planner.backlog == 1
        service.drain()

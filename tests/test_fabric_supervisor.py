"""Shard supervisor (PR 8): heartbeats, declaration, failover, restore."""

from __future__ import annotations

import pytest

from repro.fabric import AdmissionFabric, FabricConfig, SupervisorConfig
from repro.fabric.fabric import FabricError
from repro.service import EventRequest, ServiceConfig, TwinConfig
from repro.sim.trace import TraceEventKind

# fast heartbeats so supervision converges in a few tu: the housekeeper
# beats every heartbeat/2 = 1tu, the supervisor samples every 2tu
CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None,
                       twin=TwinConfig(heartbeat=2.0))
SUPERVISION = SupervisorConfig(interval=2.0, max_missed=2,
                               restart_delay=6.0)


def _fabric(tmp_path=None, shards: int = 2, sources: int = 4,
            supervised: bool = True) -> AdmissionFabric:
    fabric_config = FabricConfig(
        shards=shards,
        sources=tuple(f"src-{i}" for i in range(sources)),
        supervised=supervised, supervisor=SUPERVISION,
    )
    return AdmissionFabric(fabric_config, CONFIG, checkpoint_dir=tmp_path)


def _req(rid: str, source: str = "src-0", cost: float = 0.5,
         deadline: float = 60.0, **kw) -> EventRequest:
    return EventRequest(request_id=rid, cost=cost,
                        relative_deadline=deadline, source=source, **kw)


class TestHeartbeatWatch:
    def test_live_shards_are_never_declared_down(self, tmp_path):
        fabric = _fabric(tmp_path).start()
        fabric.clock.advance(40.0)
        assert fabric.supervisor.declared_down == 0
        assert fabric.alive_count == 2
        fabric.drain()

    def test_killed_shard_is_declared_after_k_missed_beats(self, tmp_path):
        fabric = _fabric(tmp_path).start()
        fabric.clock.advance(4.0)
        fabric.kill_shard(1)
        # one interval may still observe a beat from just before the
        # kill (sample-vs-beat ordering), then max_missed more samples
        fabric.clock.advance(4.0 + 3 * SUPERVISION.interval + 1.0)
        assert fabric.supervisor.declared_down == 1
        downs = [e for e in fabric.trace.events
                 if e.kind is TraceEventKind.SHARD_DOWN]
        assert len(downs) == 1 and downs[0].subject == "shard-1"
        assert "missed heartbeats" in downs[0].detail
        fabric.clock.advance(60.0)   # let it restore
        fabric.drain()

    def test_failover_overrides_point_at_a_live_sibling(self, tmp_path):
        fabric = _fabric(tmp_path).start()
        homed = fabric.sources_homed_on(1)
        assert homed
        fabric.kill_shard(1)
        fabric.clock.advance(3 * SUPERVISION.interval + 1.0)
        for source in homed:
            assert fabric.router.shard_for(source) == 0
        failovers = [e for e in fabric.trace.events
                     if e.kind is TraceEventKind.FAILOVER]
        assert sorted(e.subject for e in failovers) == sorted(homed)
        assert all("shard-1 -> shard-0" in e.detail for e in failovers)
        fabric.clock.advance(60.0)
        fabric.drain()

    def test_restore_rehomes_sources_and_records_latency(self, tmp_path):
        fabric = _fabric(tmp_path).start()
        homed = fabric.sources_homed_on(1)
        fabric.kill_shard(1)
        fabric.clock.advance(80.0)
        supervisor = fabric.supervisor
        assert supervisor.restored == 1
        assert fabric.shards[1].alive
        assert fabric.shards[1].incarnation == 1
        assert len(supervisor.failover_latencies) == 1
        assert supervisor.failover_latencies[0] >= (
            SUPERVISION.restart_delay - 1e-9
        )
        for source in homed:
            assert fabric.router.shard_for(source) == 1
        restores = [e for e in fabric.trace.events
                    if e.kind is TraceEventKind.SHARD_RESTORED]
        assert len(restores) == 1 and restores[0].subject == "shard-1"
        fabric.drain()

    def test_inflight_work_survives_the_kill_restore_cycle(self, tmp_path):
        fabric = _fabric(tmp_path).start()
        source = fabric.sources_homed_on(1)[0]
        ticket = fabric.router.submit(
            _req("survivor", source=source, cost=1.0, deadline=200.0)
        )
        assert ticket.admitted
        fabric.kill_shard(1)
        fabric.clock.advance(100.0)
        fabric.drain()
        report, _merged = fabric.finish()
        assert not report.violations
        terminals = [
            e for e in fabric.merged_trace().events
            if e.kind in (TraceEventKind.COMPLETION,
                          TraceEventKind.SHED)
            and e.subject == "survivor"
        ]
        assert len(terminals) == 1

    def test_no_sibling_means_brown_out(self, tmp_path):
        fabric = _fabric(tmp_path, shards=1, sources=2).start()
        fabric.kill_shard(0)
        fabric.clock.advance(3 * SUPERVISION.interval + 1.0)
        for source in fabric.sources_homed_on(0):
            assert fabric.router.shard_for(source) is None
        failovers = [e for e in fabric.trace.events
                     if e.kind is TraceEventKind.FAILOVER]
        assert failovers
        assert all("brown-out" in e.detail for e in failovers)
        fabric.clock.advance(60.0)
        fabric.drain()

    def test_restore_without_checkpoint_raises(self):
        fabric = _fabric(None, supervised=False).start()
        fabric.kill_shard(0)
        with pytest.raises(FabricError):
            fabric.restore_shard(0)
        fabric.drain()

    def test_drain_stops_supervision_without_false_declarations(
            self, tmp_path):
        fabric = _fabric(tmp_path).start()
        fabric.router.submit(_req("a"))
        fabric.drain()
        # draining shards freeze their heartbeat counters; a still-
        # running supervisor would mis-declare them dead
        assert fabric.supervisor.declared_down == 0


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(interval=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_missed=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_delay=-1.0)
        with pytest.raises(ValueError):
            SupervisorConfig(takeover_headroom=0.0)

"""Fabric chaos storm (PR 8): byte-identity, determinism, kill drills."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    AdmissionFabric,
    FabricConfig,
    FabricStormConfig,
    ShardKill,
    SupervisorConfig,
    run_fabric_storm,
)
from repro.service import (
    EventRequest,
    ServiceConfig,
    StormConfig,
    TwinConfig,
    replay_ops,
    run_service_storm,
)
from repro.service.checkpoint import CheckpointLog
from repro.sim.trace import TraceEventKind

SMALL = dict(rate=0.8, horizon=90.0, settle=40.0, sources=4,
             burst=(25.0, 40.0, 3.0))


class TestByteIdentity:
    def test_single_shard_fabric_matches_plain_service_storm(self):
        """The fabric's edge adds zero semantic drift: one shard,
        supervision off, same seed -> the exact twin state hash the
        plain PR 6 service storm produces."""
        fabric_config = FabricStormConfig(
            shards=1, supervised=False, seed=11, **SMALL
        )
        fabric_report = run_fabric_storm(fabric_config)
        service_report = run_service_storm(fabric_config.as_storm_config())
        assert fabric_report.twin_hashes["shard-0"] == (
            service_report.twin_hash
        )
        assert fabric_report.submitted == service_report.submitted
        assert fabric_report.decisions == service_report.decisions
        assert fabric_report.completed == service_report.completed
        assert fabric_report.clean

    def test_same_seed_same_fabric_state(self, tmp_path):
        config = FabricStormConfig(
            shards=3, seed=5,
            kills=(ShardKill(at=30.0, shard=1),), **SMALL,
        )
        first = run_fabric_storm(
            config, checkpoint_dir=tmp_path / "a")
        second = run_fabric_storm(
            config, checkpoint_dir=tmp_path / "b")
        assert first.state_hash == second.state_hash
        assert first.twin_hashes == second.twin_hashes
        first_dict, second_dict = first.to_dict(), second.to_dict()
        first_dict.pop("wall_seconds"), second_dict.pop("wall_seconds")
        assert first_dict == second_dict


class TestKillDrill:
    def test_mid_burst_kills_stay_clean(self, tmp_path):
        report = run_fabric_storm(FabricStormConfig(
            shards=3, seed=2,
            kills=(ShardKill(at=30.0, shard=0, corrupt_tail=True),
                   ShardKill(at=55.0, shard=2)),
            **SMALL,
        ), checkpoint_dir=tmp_path)
        assert report.kills == 2
        assert report.declared_down == 2
        assert report.restored == 2
        assert len(report.failover_latencies) == 2
        assert not report.violations
        assert not report.double_admitted
        assert report.hard_misses == 0
        assert report.clean

    def test_duplicate_retries_never_double_admit(self, tmp_path):
        report = run_fabric_storm(FabricStormConfig(
            shards=3, seed=4, duplicate_fraction=0.5,
            kills=(ShardKill(at=30.0, shard=1),),
            **SMALL,
        ), checkpoint_dir=tmp_path)
        assert report.duplicate_submissions > 0
        assert report.deduplicated > 0
        assert not report.double_admitted
        assert not report.violations
        assert report.clean

    def test_kills_without_checkpoints_are_refused(self):
        with pytest.raises(ValueError):
            run_fabric_storm(FabricStormConfig(
                shards=2, kills=(ShardKill(at=10.0, shard=0),), **SMALL,
            ))

    def test_kill_schedule_validation(self):
        with pytest.raises(ValueError):
            FabricStormConfig(shards=2,
                              kills=(ShardKill(at=10.0, shard=5),))
        with pytest.raises(ValueError):
            ShardKill(at=0.0, shard=0)

    def test_corrupt_tail_is_skipped_on_restore(self, tmp_path):
        with pytest.warns(UserWarning, match="torn/corrupt"):
            report = run_fabric_storm(FabricStormConfig(
                shards=2, seed=9,
                kills=(ShardKill(at=30.0, shard=0, corrupt_tail=True),),
                **SMALL,
            ), checkpoint_dir=tmp_path)
        assert report.restored == 1
        assert report.clean

    def test_restored_twin_matches_offline_replay(self, tmp_path):
        """The restored incarnation's starting state is exactly what an
        offline replay of the (possibly torn) checkpoint produces."""
        config = FabricStormConfig(
            shards=2, seed=7,
            kills=(ShardKill(at=30.0, shard=0),), **SMALL,
        )
        report = run_fabric_storm(config, checkpoint_dir=tmp_path)
        assert report.restored == 1
        # the checkpoint now also holds the restored incarnation's ops;
        # replaying end-to-end must land on the live final twin state
        _planner, twin, _header = replay_ops(
            CheckpointLog(tmp_path / "shard-0.jsonl").load()
        )
        assert twin.state_hash() == report.twin_hashes["shard-0"]


class _PairedScenario:
    """One seeded kill→failover→restore run and its unkilled control."""

    CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None,
                           twin=TwinConfig(heartbeat=2.0))
    SUPERVISION = SupervisorConfig(interval=2.0, max_missed=2,
                                   restart_delay=6.0)

    def __init__(self, seed: int, tmp_path):
        self.seed = seed
        self.tmp_path = tmp_path

    def _requests(self, phase: str, count: int, sources: int):
        from repro.workload.rng import PortableRandom
        rng = PortableRandom(self.seed * 31 + len(phase))
        return [
            EventRequest(
                request_id=f"{phase}-{i:03d}",
                cost=rng.uniform(0.2, 0.8),
                relative_deadline=120.0,
                source=f"src-{i % sources}",
                hard=rng.random() < 0.5,
            )
            for i in range(count)
        ]

    def run(self, kill: bool, blackout_arrivals: bool):
        # one fixed timeline for chaos and control runs alike, so the
        # only difference between them is the kill itself:
        #   t=0  warm arrivals     t=8   kill (chaos run only)
        #   t=14 SHARD_DOWN        t=16  blackout arrivals (failover)
        #   t=20 SHARD_RESTORED    t=60  late arrivals    t=100 drain
        fabric = AdmissionFabric(
            FabricConfig(
                shards=2, sources=("src-0", "src-1", "src-2", "src-3"),
                supervisor=self.SUPERVISION,
            ),
            self.CONFIG,
            checkpoint_dir=(
                self.tmp_path / ("killed" if kill else "control")
            ),
        )
        fabric.start()
        router = fabric.router
        for request in self._requests("warm", 6, 4):
            router.submit(request)
            dup = router.submit(request)   # impatient duplicate
            assert not dup.admitted or dup.duplicate
        fabric.clock.advance(8.0)          # warm work settles
        if kill:
            fabric.kill_shard(1)
        fabric.clock.advance(16.0)
        if kill:
            assert fabric.supervisor.declared_down == 1
        if blackout_arrivals:
            for request in self._requests("dark", 4, 4):
                ticket = router.submit(request)
                dup = router.submit(request)
                assert ticket.admitted
                assert dup.duplicate
        fabric.clock.advance(60.0)
        if kill:
            assert fabric.supervisor.restored == 1
        for request in self._requests("late", 6, 4):
            router.submit(request)
            router.submit(request)
        fabric.clock.advance(100.0)
        fabric.drain()
        report, merged = fabric.finish()
        fates: dict[str, str] = {}
        for event in merged.events:
            if event.kind in (TraceEventKind.COMPLETION,
                              TraceEventKind.SHED):
                assert event.subject not in fates   # one terminal each
                fates[event.subject] = event.kind.value
        return fabric, report, fates


class TestFailoverProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kill_failover_restore_preserves_fates(self, seed,
                                                   tmp_path_factory):
        """Under duplicate client retries, a kill→failover→restore run
        settles every request to the same terminal fate as a run that
        never killed anything — and both verify clean."""
        tmp_path = tmp_path_factory.mktemp(f"fates-{seed}")
        scenario = _PairedScenario(seed, tmp_path)

        chaos_fabric, chaos_report, chaos_fates = scenario.run(
            kill=True, blackout_arrivals=True)
        _control_fabric, control_report, control_fates = scenario.run(
            kill=False, blackout_arrivals=True)
        assert not chaos_report.violations
        assert not control_report.violations
        assert chaos_fates == control_fates
        assert chaos_fabric.supervisor.restored == 1

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_quiet_kill_restore_preserves_state_hash(self, seed,
                                                     tmp_path_factory):
        """A kill whose blackout window sees no arrivals is invisible:
        the checkpoint restore lands the fabric on the same per-shard
        twin state hashes as the unkilled control run."""
        tmp_path = tmp_path_factory.mktemp(f"hash-{seed}")
        scenario = _PairedScenario(seed, tmp_path)

        chaos_fabric, chaos_report, chaos_fates = scenario.run(
            kill=True, blackout_arrivals=False)
        control_fabric, control_report, control_fates = scenario.run(
            kill=False, blackout_arrivals=False)
        assert not chaos_report.violations
        assert not control_report.violations
        assert chaos_fates == control_fates
        assert chaos_fabric.state_hash() == control_fabric.state_hash()

"""End-to-end seeded storms against the admission service.

The PR 6 acceptance criteria, as tests: under a seeded Poisson storm
with timer drift and WCET overruns the service never violates a
monitor invariant, every admitted hard event completes by its deadline
or is explicitly SHED, runs are deterministic, and a kill/restore
round-trip resumes from a byte-identical twin.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import main
from repro.service import StormConfig, run_service_storm
from repro.sim.trace import TraceEventKind

CLEAN = StormConfig(rate=0.4, horizon=150.0, seed=11)
SKEWED = StormConfig(
    rate=0.4, horizon=150.0, seed=11,
    drift_ppm=40000.0, overrun_factor=1.6, overrun_probability=0.5,
)


class TestCleanStorm:
    def test_no_violations_and_everything_settles(self):
        report = run_service_storm(CLEAN)
        assert report.clean, report.violations
        assert report.admitted > 0
        assert report.completed + report.shed == report.admitted
        assert report.hard_misses == 0

    def test_deterministic_twin_hash(self):
        a = run_service_storm(CLEAN)
        b = run_service_storm(CLEAN)
        assert a.twin_hash == b.twin_hash
        wall = ("wall_seconds", "admissions_per_sec", "replan_latency_s")
        logical_a = {k: v for k, v in a.to_dict().items() if k not in wall}
        logical_b = {k: v for k, v in b.to_dict().items() if k not in wall}
        assert logical_a == logical_b

    def test_seed_changes_the_run(self):
        a = run_service_storm(CLEAN)
        b = run_service_storm(StormConfig(
            rate=0.4, horizon=150.0, seed=12,
        ))
        assert a.twin_hash != b.twin_hash


class TestSkewedStorm:
    def test_divergence_never_breaks_invariants(self):
        report = run_service_storm(SKEWED)
        assert report.clean, report.violations
        # the skew actually produced divergence and forced re-planning
        assert sum(report.divergences.values()) > 0
        assert sum(report.replans.values()) > 0

    def test_hard_deadlines_met_or_explicitly_shed(self):
        report = run_service_storm(SKEWED)
        assert report.hard_misses == 0       # never a silent hard miss
        trace = report.trace
        assert trace is not None
        sheds = [e for e in trace.events
                 if e.kind is TraceEventKind.SHED]
        # every deadline-guard cut left an explicit SHED record
        assert report.deadline_cuts == len(
            [e for e in sheds if "deadline-guard" in e.detail]
        )

    def test_replan_latency_is_recorded(self):
        report = run_service_storm(SKEWED)
        stats = report.replan_latency_s
        corrective = sum(n for level, n in report.replans.items()
                         if level != "restore")
        assert stats["count"] == corrective
        if stats["count"]:
            assert 0.0 <= stats["mean"] <= stats["max"] < 1.0

    def test_degraded_at_the_horizon_finishes_cleanly(self):
        """A short quiet tail leaves the detector degraded when the
        event loop returns; ``finish()`` then restores normal mode
        outside the loop and must not need a running task."""
        report = run_service_storm(StormConfig(
            seed=96, drift_ppm=40000.0, overrun_factor=1.6,
            overrun_probability=0.5, burst=(60.0, 85.0, 8.0), settle=5.0,
        ))
        assert report.mode_at_end == "degraded"
        assert report.clean, report.violations


class TestSeedRange:
    """A skewed run takes any int seed; its low 64 bits count, as in
    :class:`~repro.workload.rng.PortableRandom`."""

    IDS = [f"req-{i:05d}" for i in range(64)]

    def test_skew_factors_use_the_seed_modulo_2_64(self):
        skew = SKEWED.skew

        def factors(seed):
            return [skew.factors(seed, rid) for rid in self.IDS]

        assert factors(-3) == factors(2**64 - 3)
        assert factors(2**64 + 5) == factors(5)

    def test_negative_storm_seed_runs_clean(self, capsys):
        assert main(["service", "--storm-seed", "-3", "--drift-ppm",
                     "40000", "--overrun-factor", "1.6",
                     "--overrun-probability", "0.5"]) == 0
        out = capsys.readouterr().out
        assert '"violations": []' in out
        assert "storm clean" in out


class TestKillRestore:
    def test_kill_then_restore_resumes_identically(self, tmp_path):
        # killed at 35.0, three admitted jobs are still in flight
        path = tmp_path / "storm.jsonl"
        config = StormConfig(
            rate=0.4, horizon=150.0, seed=11, kill_at=35.0,
        )
        killed = run_service_storm(config, checkpoint_path=path)
        assert killed.killed and killed.twin_hash

        resumed = run_service_storm(
            StormConfig(rate=0.4, horizon=150.0, seed=11),
            checkpoint_path=path, resume=True,
        )
        assert resumed.resumed_from_hash == killed.twin_hash
        assert resumed.clean, resumed.violations
        announced = [
            e for e in resumed.trace.events
            if e.kind is TraceEventKind.RELEASE
            and e.detail.startswith("resumed")
        ]
        assert len(announced) == 3

    def test_restore_without_checkpoint_fails(self, tmp_path):
        from repro.service.checkpoint import CheckpointError

        with pytest.raises(CheckpointError):
            run_service_storm(
                CLEAN, checkpoint_path=tmp_path / "absent.jsonl",
                resume=True,
            )

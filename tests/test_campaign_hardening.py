"""Campaign hardening: per-run timeout, bounded retry, checkpointing.

A hardened sweep must *record* failures instead of raising: a crashed
or hung run becomes a :class:`RunRecord` with a status, the survivors
still aggregate into the paper's tables, and a checkpoint file lets an
interrupted campaign resume without redoing completed runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.experiments import campaign
from repro.experiments.campaign import (
    CampaignResult,
    RunPolicy,
    RunRecord,
    RunTimeout,
    run_campaign,
)
from repro.faults.injectors import EventBurst, FaultPlan
from repro.service.backoff import DEFAULT_BACKOFF
from repro.smp import campaign as smp_campaign
from repro.smp.campaign import MulticoreParameters
from repro.workload.generator import GenerationParameters

SMALL = (
    GenerationParameters(
        task_density=1.0,
        average_cost=3.0,
        std_deviation=0.0,
        server_capacity=4.0,
        server_period=6.0,
        nb_generation=2,
        seed=7,
    ),
)
N_ARMS = 4  # ps_sim, ps_exec, ds_sim, ds_exec


# ------------------------------------------------------------- RunPolicy


class TestRunPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RunPolicy(timeout_s=-1.0)
        with pytest.raises(ValueError):
            RunPolicy(max_retries=-1)
        RunPolicy()  # defaults are valid

    def test_record_round_trip(self):
        record = RunRecord(
            arm="ps_sim", set_key=(1.0, 0.5), system_id=3,
            status="timeout", attempts=2, error="wall clock exceeded",
        )
        clone = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.arm == record.arm
        assert clone.set_key == record.set_key
        assert clone.system_id == record.system_id
        assert clone.status == record.status
        assert clone.attempts == record.attempts
        assert clone.error == record.error
        assert clone.metrics is None


# --------------------------------------------------------- golden parity


class TestGoldenParity:
    """run_policy=RunPolicy() must not change any aggregated number."""

    def test_hardened_equals_plain(self):
        plain = run_campaign(sets=SMALL)
        hard = run_campaign(sets=SMALL, run_policy=RunPolicy())
        assert set(plain.tables) == set(hard.tables)
        for arm in plain.tables:
            for key, metrics in plain.tables[arm].items():
                other = hard.tables[arm][key]
                assert other.aart == metrics.aart
                assert other.air == metrics.air
                assert other.asr == metrics.asr
        assert len(hard.records) == SMALL[0].nb_generation * N_ARMS
        assert not hard.failures

    def test_plain_campaign_records_nothing(self):
        plain = run_campaign(sets=SMALL)
        assert plain.records == []
        assert plain.failures == []


# ------------------------------------------------------------- failures


class TestFailureRecording:
    def test_crash_becomes_record_not_exception(self, monkeypatch):
        real = campaign._run_arm

        def flaky(arm, system, overhead, enforcement, verify):
            if arm == "ps_exec" and system.system_id == 1:
                raise RuntimeError("boom")
            return real(arm, system, overhead, enforcement, verify)

        monkeypatch.setattr(campaign, "_run_arm", flaky)
        result = run_campaign(sets=SMALL, run_policy=RunPolicy())
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.status == "failed"
        assert failure.arm == "ps_exec"
        assert failure.system_id == 1
        assert "boom" in failure.error
        # the sweep still aggregated the surviving runs of that arm
        assert result.tables["ps_exec"]

    def test_all_runs_failing_leaves_arm_empty(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        result = run_campaign(
            sets=SMALL, arms=("ps_sim",), run_policy=RunPolicy()
        )
        assert len(result.failures) == SMALL[0].nb_generation
        assert result.tables["ps_sim"] == {}

    def test_unhardened_campaign_still_raises(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify):
            raise RuntimeError("nothing works")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        with pytest.raises(RuntimeError):
            run_campaign(sets=SMALL, arms=("ps_sim",))


# ---------------------------------------------------------------- retry


class TestRetry:
    def test_retry_with_seed_bump_recovers(self, monkeypatch):
        real = campaign._run_arm
        calls = {"n": 0}

        def flaky_once(arm, system, overhead, enforcement, verify):
            if arm == "ps_sim" and system.system_id == 0 and calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("first attempt dies")
            return real(arm, system, overhead, enforcement, verify)

        monkeypatch.setattr(campaign, "_run_arm", flaky_once)
        result = run_campaign(sets=SMALL, run_policy=RunPolicy(max_retries=2))
        record = next(
            r for r in result.records
            if r.arm == "ps_sim" and r.system_id == 0
        )
        assert record.status == "ok"
        assert record.attempts == 2
        assert not result.failures

    def test_retries_exhausted(self, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify):
            raise RuntimeError("always")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        result = run_campaign(
            sets=SMALL, arms=("ds_sim",), run_policy=RunPolicy(max_retries=2)
        )
        assert all(r.attempts == 3 for r in result.failures)


class TestRetryInEveryCampaign:
    """The multicore and both overload campaigns retry like the paper
    campaign: retry ``a`` regenerates the system from ``seed +
    DEFAULT_BACKOFF.seed_bump(seed, a)`` and re-applies the campaign's
    fault plan (for the overload campaigns, the burst)."""

    BURST = EventBurst(extra=3, probability=0.5, spacing=0.05)

    @staticmethod
    def _failing_twice(real, calls, at=0):
        """``real``, failing its first two calls and logging the system
        (positional argument ``at``) of every later one."""
        left = {"n": 2}

        def flaky(*args, **kwargs):
            if left["n"]:
                left["n"] -= 1
                raise RuntimeError("still warming up")
            calls.append(args[at])
            return real(*args, **kwargs)

        return flaky

    def _spy_multicore(self, monkeypatch):
        """Log the seeds `build_multicore_system` is called with, and fail
        the first two multicore runs."""
        seeds, calls = [], []
        real_build = smp_campaign.build_multicore_system

        def spying_build(p, system_id=0):
            seeds.append(p.seed)
            return real_build(p, system_id)

        monkeypatch.setattr(smp_campaign, "build_multicore_system",
                            spying_build)
        monkeypatch.setattr(
            smp_campaign, "run_multicore_system",
            self._failing_twice(smp_campaign.run_multicore_system, calls),
        )
        return seeds, calls, real_build

    @staticmethod
    def _bumped(seed):
        return [seed + DEFAULT_BACKOFF.seed_bump(seed, a) for a in (1, 2)]

    def test_multicore_campaign(self, monkeypatch):
        params = MulticoreParameters(n_cores=2, n_tasks=4,
                                     total_utilization=0.8, nb_systems=1)
        seeds, calls, real_build = self._spy_multicore(monkeypatch)
        result = smp_campaign.run_multicore_campaign(
            params, modes=("part-ff",), run_policy=RunPolicy(max_retries=2)
        )
        [record] = result.records
        assert (record.status, record.attempts) == ("ok", 3)
        assert seeds == [params.seed, *self._bumped(params.seed)]
        assert calls == [real_build(replace(params, seed=seeds[-1]), 0)]

    def test_overload_campaign(self, monkeypatch):
        params = SMALL[0]
        seeds, calls = [], []
        real_generator = campaign.RandomSystemGenerator

        def spying_generator(p):
            seeds.append(p.seed)
            return real_generator(p)

        monkeypatch.setattr(campaign, "RandomSystemGenerator",
                            spying_generator)
        monkeypatch.setattr(
            campaign, "_run_overload_arm",
            self._failing_twice(campaign._run_overload_arm, calls, at=1),
        )
        result = campaign.run_overload_campaign(
            sets=(replace(params, nb_generation=1),), arms=("ps_sim",),
            burst=self.BURST, run_policy=RunPolicy(max_retries=2),
        )
        [record] = result.records
        assert (record.status, record.attempts) == ("ok", 3)
        assert seeds == [params.seed, *self._bumped(params.seed)]
        clean = real_generator(replace(params, seed=seeds[-1])).generate()[0]
        burst = FaultPlan(injectors=(self.BURST,), seed=params.seed)
        assert calls == [clean, burst.apply(clean)]
        assert calls[1] != calls[0]
        assert [run.system_id for run in result.runs] == [0]

    def test_multicore_overload_campaign(self, monkeypatch):
        params = MulticoreParameters(n_cores=2, n_tasks=4,
                                     total_utilization=0.8, task_density=3.0)
        seeds, calls, real_build = self._spy_multicore(monkeypatch)
        result = smp_campaign.run_multicore_overload_campaign(
            params, modes=("part-ff",), burst=self.BURST,
            run_policy=RunPolicy(max_retries=2),
        )
        [record] = result.records
        assert (record.status, record.attempts) == ("ok", 3)
        assert seeds == [params.seed, *self._bumped(params.seed)]
        clean = real_build(replace(params, seed=seeds[-1]), 0)
        burst = FaultPlan(injectors=(self.BURST,), seed=params.seed)
        assert calls == [clean, burst.apply(clean)]
        assert calls[1] != calls[0]
        assert [run.arm for run in result.runs] == ["part-ff"]


# -------------------------------------------------------------- timeout


class TestTimeout:
    def test_hung_run_times_out(self, monkeypatch):
        def hang(arm, system, overhead, enforcement, verify):
            time.sleep(10)

        monkeypatch.setattr(campaign, "_run_arm", hang)
        start = time.monotonic()
        result = run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(timeout_s=0.1),
        )
        assert time.monotonic() - start < 5
        assert result.records
        assert all(r.status == "timeout" for r in result.records)

    def test_time_limit_is_nested_safe(self):
        # no limit -> no signal machinery involved
        with campaign._time_limit(None):
            pass
        with pytest.raises(RunTimeout):
            with campaign._time_limit(0.05):
                time.sleep(1)
        # the timer is disarmed afterwards
        time.sleep(0.1)


# ----------------------------------------------------------- checkpoint


class TestCheckpoint:
    def test_resume_skips_completed_runs(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "runs.jsonl"
        first = run_campaign(
            sets=SMALL, run_policy=RunPolicy(checkpoint_path=ckpt)
        )
        assert ckpt.exists()
        assert len(ckpt.read_text().splitlines()) == len(first.records)

        def explode(arm, system, overhead, enforcement, verify):
            raise AssertionError("must resume from the checkpoint")

        monkeypatch.setattr(campaign, "_run_arm", explode)
        second = run_campaign(
            sets=SMALL, run_policy=RunPolicy(checkpoint_path=ckpt)
        )
        for arm in first.tables:
            for key, metrics in first.tables[arm].items():
                assert second.tables[arm][key].aart == metrics.aart

    def test_checkpoint_appends_only_new_runs(self, tmp_path):
        ckpt = tmp_path / "runs.jsonl"
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        lines_once = len(ckpt.read_text().splitlines())
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        assert len(ckpt.read_text().splitlines()) == lines_once

    def test_corrupt_record_reruns_with_a_warning(self, tmp_path,
                                                  monkeypatch):
        ckpt = tmp_path / "runs.jsonl"
        policy = RunPolicy(checkpoint_path=ckpt)
        first = run_campaign(sets=SMALL, run_policy=policy)
        lines = ckpt.read_text().splitlines()
        # a flipped metric still parses, but is not what was written
        victim = json.loads(lines[1])
        victim["metrics"]["served"] += 1
        lines[1] = json.dumps(victim)
        ckpt.write_text("\n".join(lines) + "\n")

        reruns = []
        real_run_arm = campaign._run_arm

        def counting(arm, *args):
            reruns.append(arm)
            return real_run_arm(arm, *args)

        monkeypatch.setattr(campaign, "_run_arm", counting)
        with pytest.warns(UserWarning, match="torn/corrupt"):
            resumed = run_campaign(sets=SMALL, run_policy=policy)
        assert reruns == [first.records[1].arm]
        assert (
            [r.to_dict() for r in resumed.records]
            == [r.to_dict() for r in first.records]
        )
        assert len(ckpt.read_text().splitlines()) == len(lines) + 1

    def test_checkpointless_campaign_leaves_the_service_package_unloaded(
        self,
    ):
        # the checkpoint log lives in repro.service, whose import pulls
        # in asyncio and the whole admission service
        code = (
            "import sys\n"
            "from repro.experiments.campaign import run_campaign\n"
            "from repro.workload.generator import GenerationParameters\n"
            f"run_campaign(sets=({SMALL[0]!r},))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.service')))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_another_campaigns_checkpoint_is_refused(self, tmp_path):
        ckpt = tmp_path / "shared.jsonl"
        policy = RunPolicy(checkpoint_path=ckpt)
        run_campaign(sets=SMALL, arms=("ps_sim",), run_policy=policy)
        written = ckpt.read_text()
        assert [json.loads(line)["campaign"] for line in written.splitlines()
                ] == ["paper"] * SMALL[0].nb_generation
        # the two campaigns key their runs alike: untagged, these records
        # would pass for the overload sweep's own, and it would run nothing
        with pytest.raises(ValueError) as caught:
            campaign.run_overload_campaign(
                sets=SMALL, arms=("ps_sim",), run_policy=policy
            )
        assert str(caught.value) == (
            f"checkpoint {ckpt} holds runs of the paper campaign, "
            "not of the overload campaign"
        )
        assert ckpt.read_text() == written

    def test_multicore_campaigns_refuse_each_others_checkpoint(self,
                                                              tmp_path):
        params = MulticoreParameters(n_cores=2, n_tasks=4,
                                     total_utilization=0.8, nb_systems=1)
        policy = RunPolicy(checkpoint_path=tmp_path / "mc.jsonl")
        smp_campaign.run_multicore_campaign(
            params, modes=("part-ff",), run_policy=policy
        )
        with pytest.raises(ValueError, match=(
            "holds runs of the multicore campaign, "
            "not of the multicore-overload campaign"
        )):
            smp_campaign.run_multicore_overload_campaign(
                params, modes=("part-ff",), run_policy=policy
            )

    def test_lines_without_a_campaign_resume_as_before(self, tmp_path,
                                                       monkeypatch):
        from repro.service.checkpoint import CheckpointLog

        first = run_campaign(sets=SMALL, arms=("ps_sim",),
                             run_policy=RunPolicy())
        # lines as written before they named their campaign
        ckpt = tmp_path / "runs.jsonl"
        for record in first.records:
            CheckpointLog(ckpt).append(record.to_dict())

        def explode(arm, system, overhead, enforcement, verify):
            raise AssertionError("must resume from the checkpoint")

        monkeypatch.setattr(campaign, "_run_arm", explode)
        resumed = run_campaign(sets=SMALL, arms=("ps_sim",),
                               run_policy=RunPolicy(checkpoint_path=ckpt))
        assert (
            [r.to_dict() for r in resumed.records]
            == [r.to_dict() for r in first.records]
        )
        assert len(ckpt.read_text().splitlines()) == len(first.records)

    def test_failed_runs_are_checkpointed_too(self, tmp_path, monkeypatch):
        def doomed(arm, system, overhead, enforcement, verify):
            raise RuntimeError("crash")

        monkeypatch.setattr(campaign, "_run_arm", doomed)
        ckpt = tmp_path / "runs.jsonl"
        run_campaign(
            sets=SMALL, arms=("ps_sim",),
            run_policy=RunPolicy(checkpoint_path=ckpt),
        )
        records = [
            RunRecord.from_dict(json.loads(line))
            for line in ckpt.read_text().splitlines()
        ]
        assert records
        assert all(r.status == "failed" for r in records)


# ------------------------------------------------------------ integration


class TestFaultedCampaign:
    """The acceptance scenario: overrun faults + enforcement + hardening."""

    def test_completes_with_records(self):
        from repro.faults import EnforcementConfig, FaultPlan, WcetOverrun

        result = run_campaign(
            sets=SMALL,
            fault_plan=FaultPlan(injectors=(WcetOverrun(factor=3.0),), seed=3),
            enforcement=EnforcementConfig("clip-to-budget"),
            run_policy=RunPolicy(max_retries=1),
        )
        assert isinstance(result, CampaignResult)
        assert len(result.records) == SMALL[0].nb_generation * N_ARMS
        assert not result.failures
        for arm in ("ps_sim", "ps_exec", "ds_sim", "ds_exec"):
            assert result.tables[arm], arm

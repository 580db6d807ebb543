"""The parallel campaign executor: determinism, checkpoints, resume."""

from __future__ import annotations

import dataclasses
import json
from functools import partial

import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import (
    PAPER_SETS,
    RunPolicy,
    RunRecord,
    run_campaign,
)
from repro.smp import (
    MulticoreParameters,
    format_multicore_campaign,
    run_multicore_campaign,
)
from repro.workload import RandomSystemGenerator

SMALL_SETS = tuple(
    dataclasses.replace(s, nb_generation=2) for s in PAPER_SETS[:2]
)
ARMS = ("ps_sim", "ds_exec")

MC_PARAMS = MulticoreParameters(
    n_cores=2, n_tasks=6, total_utilization=1.2, nb_systems=3, seed=7,
    horizon_periods=4,
)
MC_MODES = ("part-ff", "global-edf")


def _table_rows(campaign):
    return {
        arm: {key: campaign.tables[arm][key].as_row()
              for key in campaign.tables[arm]}
        for arm in campaign.tables
    }


class TestUniprocessorParallelism:
    def test_workers_bit_identical_to_sequential(self):
        seq = run_campaign(sets=SMALL_SETS, arms=ARMS, workers=1)
        par = run_campaign(sets=SMALL_SETS, arms=ARMS, workers=3)
        assert _table_rows(par) == _table_rows(seq)
        assert (
            [r.to_dict() for r in par.records]
            == [r.to_dict() for r in seq.records]
        )

    def test_workers_write_parent_only_checkpoint(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        run_campaign(
            sets=SMALL_SETS, arms=ARMS, workers=2,
            run_policy=RunPolicy(checkpoint_path=path),
        )
        lines = path.read_text().splitlines()
        assert len(lines) == len(SMALL_SETS) * 2 * len(ARMS)
        for line in lines:
            record = RunRecord.from_dict(json.loads(line))
            assert record.status == "ok"

    def test_resume_skips_completed_runs(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        policy = RunPolicy(checkpoint_path=path)
        first = run_campaign(sets=SMALL_SETS, arms=ARMS, workers=2,
                             run_policy=policy)
        n_lines = len(path.read_text().splitlines())
        resumed = run_campaign(sets=SMALL_SETS, arms=ARMS, workers=2,
                               run_policy=policy)
        # nothing re-ran, nothing re-written, identical tables
        assert len(path.read_text().splitlines()) == n_lines
        assert _table_rows(resumed) == _table_rows(first)


def _paper_runs(params, arms):
    """The paper campaign's unguarded runs of one set, as pool tasks."""
    execute = partial(campaign_mod._paper_run, None, None, False)
    regenerate = partial(campaign_mod._paper_system, params, None)
    key = (params.task_density, params.std_deviation)
    return [
        campaign_mod.CampaignRun(arm, key, system.system_id, params.seed,
                                 system, execute, regenerate)
        for system in RandomSystemGenerator(params).generate()
        for arm in arms
    ]


class TestStartMethods:
    def test_parallel_map_spawn_matches_inline(self):
        """The pool works under an explicit ``spawn`` context: workers
        re-import everything from scratch (no inherited state), so every
        entry point and task payload must pickle by qualified name and
        produce bit-identical ordered results."""
        runs = _paper_runs(SMALL_SETS[0], ("ps_sim", "ds_exec"))
        entry = partial(campaign_mod.guarded, policy=None)
        inline = campaign_mod._parallel_map(entry, runs, 1)
        spawned = campaign_mod._parallel_map(
            entry, runs, 2, mp_context="spawn"
        )
        assert len(inline) == 4 and all(r.status == "ok" for r in inline)
        assert spawned == inline

    def test_parallel_map_explicit_context_object(self):
        import multiprocessing

        runs = _paper_runs(SMALL_SETS[1], ("ds_sim",))[:1]
        entry = partial(campaign_mod.guarded, policy=RunPolicy())
        # a single task runs inline regardless of context; two workers
        # with a context object exercise the ctx.Pool branch
        inline = campaign_mod._parallel_map(entry, runs, 1)
        pooled = campaign_mod._parallel_map(
            entry, runs * 2, 2,
            mp_context=multiprocessing.get_context("spawn"),
        )
        assert pooled == inline * 2


class TestMulticoreParallelism:
    def test_workers_bit_identical_to_sequential(self):
        seq = run_multicore_campaign(MC_PARAMS, modes=MC_MODES, workers=1)
        par = run_multicore_campaign(MC_PARAMS, modes=MC_MODES, workers=3)
        assert (
            format_multicore_campaign(par.tables)
            == format_multicore_campaign(seq.tables)
        )
        assert (
            [r.to_dict() for r in par.records]
            == [r.to_dict() for r in seq.records]
        )

    def test_resume_from_truncated_checkpoint(self, tmp_path):
        path = tmp_path / "mc.jsonl"
        policy = RunPolicy(checkpoint_path=path)
        golden = run_multicore_campaign(
            MC_PARAMS, modes=MC_MODES, run_policy=policy, workers=2
        )
        lines = path.read_text().splitlines(True)
        assert len(lines) == MC_PARAMS.nb_systems * len(MC_MODES)
        # simulate a crash mid-append: final line half written
        path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        resumed = run_multicore_campaign(
            MC_PARAMS, modes=MC_MODES, run_policy=policy, workers=1
        )
        assert (
            format_multicore_campaign(resumed.tables)
            == format_multicore_campaign(golden.tables)
        )
        # the re-run record landed on a line of its own (the truncated
        # line is isolated and ignored); a third sweep re-runs nothing
        parsed, broken = 0, 0
        for line in path.read_text().splitlines():
            try:
                json.loads(line)
                parsed += 1
            except json.JSONDecodeError:
                broken += 1
        assert parsed == len(lines)
        assert broken == 1
        n_lines = len(path.read_text().splitlines())
        run_multicore_campaign(
            MC_PARAMS, modes=MC_MODES, run_policy=policy, workers=1
        )
        assert len(path.read_text().splitlines()) == n_lines

    def test_payload_round_trips_per_core_metrics(self):
        result = run_multicore_campaign(
            dataclasses.replace(MC_PARAMS, nb_systems=1),
            modes=("part-ff",),
        )
        record = result.records[0]
        assert record.payload is not None
        restored = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert restored.payload == record.payload
        assert restored.to_dict() == record.to_dict()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_multicore_campaign(MC_PARAMS, modes=("part-zz",))

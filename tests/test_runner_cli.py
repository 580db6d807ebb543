"""Tests for the experiments runner CLI."""

from __future__ import annotations

import gc
import re

import pytest

from repro.experiments.runner import main


class TestRunnerTargets:
    def test_single_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2." in out
        assert "Table 3." not in out

    def test_compare_mode(self, capsys):
        assert main(["table4", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "5.30" in out  # the paper's Table 4 (1,0) AART

    def test_checks_target(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "Shape checks" in out
        assert "FAIL" not in out

    def test_figures_target_with_svg(self, tmp_path, capsys):
        assert main(["figures", "--svg-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 4" in out
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert svgs == [
            "figure2_scenario1.svg",
            "figure3_scenario2.svg",
            "figure4_scenario3.svg",
        ]

    def test_report_target_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main(["report", "--output", str(out_file)]) == 0
        assert "report written" in capsys.readouterr().out
        assert "Shape checks" in out_file.read_text()

    def test_no_overhead_flag(self, capsys):
        assert main(["table3", "--no-overhead"]) == 0
        out = capsys.readouterr().out
        # without overheads the execution arm never interrupts
        for line in out.splitlines():
            if line.startswith("AIR"):
                assert set(line.split()[1:]) == {"0.00"}

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])


class TestProfileFlag:
    def test_profile_reports_the_cyclic_collector(self, capsys):
        callbacks = list(gc.callbacks)
        assert main(["--profile", "table2"]) == 0
        assert gc.callbacks == callbacks, "the collector tally stayed installed"
        out = capsys.readouterr().out
        assert "profile: hottest kernel frames" in out
        lines = [line for line in out.splitlines() if line.startswith("gc: ")]
        assert len(lines) == 1, out
        generation = r"gen{} \d+ collections \d+ collected \d+\.\d\d ms"
        assert re.fullmatch(
            "gc: " + "; ".join(generation.format(g) for g in range(3)),
            lines[0],
        ), lines[0]


class TestMulticoreTarget:
    ARGS = ["multicore", "--cores", "2", "--systems", "2",
            "--utilization", "1.2"]

    def test_all_modes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        for mode in ("part-ff", "part-wf", "part-bf", "global-fp",
                     "global-edf"):
            assert f"=== {mode}" in out
        assert "migrations" in out

    def test_single_placement_arm(self, capsys):
        assert main([*self.ARGS, "--placement", "wf"]) == 0
        out = capsys.readouterr().out
        assert "=== part-wf" in out
        assert "global" not in out

    def test_single_global_arm_with_workers(self, capsys):
        assert main([*self.ARGS, "--global-sched", "edf",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "=== global-edf" in out
        assert "part-" not in out

    def test_svg_output(self, tmp_path, capsys):
        assert main([*self.ARGS, "--global-sched", "fp",
                     "--svg-dir", str(tmp_path)]) == 0
        svg = tmp_path / "multicore_global-fp.svg"
        assert svg.exists()
        assert "core 1" in svg.read_text(encoding="utf-8")

    def test_bad_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["table2", "--workers", "0"])


class TestOverloadTarget:
    @staticmethod
    def _stand_in(monkeypatch, result):
        """Replace the overload campaign; returns its keyword arguments."""
        import repro.experiments.campaign as campaign_mod

        seen = {}

        def stand_in(**kwargs):
            seen.update(kwargs)
            return result

        monkeypatch.setattr(campaign_mod, "run_overload_campaign", stand_in)
        return seen

    def test_retries_reach_the_campaign(self, monkeypatch):
        from repro.experiments.campaign import OverloadCampaignResult

        seen = self._stand_in(monkeypatch, OverloadCampaignResult())
        assert main(["overload", "--retries", "1"]) == 0
        assert seen["run_policy"].max_retries == 1

    def test_failures_are_reported_with_their_attempts(self, monkeypatch,
                                                       capsys):
        from repro.experiments.campaign import (
            OverloadCampaignResult,
            RunRecord,
        )

        failed = RunRecord(arm="ps_sim", set_key=(1, 0.0), system_id=3,
                           status="timeout", attempts=2)
        self._stand_in(monkeypatch, OverloadCampaignResult(records=[failed]))
        assert main(["overload", "--retries", "1"]) == 1
        assert capsys.readouterr().out == (
            "WARNING: 1 run(s) failed:\n"
            "  [timeout] ps_sim set=(1, 0.0) system=3 after 2 attempt(s)\n"
        )


class TestSharedCheckpoint:
    def test_overload_refuses_the_paper_campaigns_checkpoint(self, tmp_path,
                                                             capsys):
        from dataclasses import replace

        from repro.experiments.campaign import (
            PAPER_SETS,
            RunPolicy,
            run_campaign,
        )

        path = tmp_path / "shared.jsonl"
        run_campaign(sets=(replace(PAPER_SETS[0], nb_generation=1),),
                     arms=("ps_sim",),
                     run_policy=RunPolicy(checkpoint_path=path))
        written = path.read_text()
        assert main(["overload", "--checkpoint", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"checkpoint {path} holds runs of the paper campaign, "
            "not of the overload campaign\n"
        )
        assert path.read_text() == written


class TestFabricTarget:
    ARGS = ["fabric", "--storm-rate", "0.4", "--storm-horizon", "50"]

    def test_kill_drill_reports_clean(self, tmp_path, capsys):
        assert main([*self.ARGS, "--fabric-kill", "20:1:corrupt",
                     "--fabric-checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert '"declared_down": 1' in out
        assert '"restored": 1' in out
        assert "fabric storm clean" in out
        assert (tmp_path / "shard-1.jsonl").exists()

    def test_kills_default_to_a_temporary_checkpoint_dir(self, capsys):
        assert main([*self.ARGS, "--fabric-kill", "20:0"]) == 0
        assert "fabric storm clean" in capsys.readouterr().out

    def test_bad_kill_spec_rejected(self, capsys):
        assert main([*self.ARGS, "--fabric-kill", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "TIME:SHARD" in err
        assert main([*self.ARGS, "--fabric-kill", "20:9"]) == 1

    def test_bad_shard_count_rejected(self, capsys):
        assert main(["fabric", "--fabric-shards", "0"]) == 1


class TestGatewayTarget:
    ARGS = ["gateway", "--soak-requests", "40", "--soak-rate", "4"]

    def test_soak_drill_reports_clean(self, tmp_path, capsys):
        assert main([*self.ARGS, "--soak-dir", str(tmp_path),
                     "--proxy-faults", "reset=0.02,dup=0.04",
                     "--kill-at", "5"]) == 0
        captured = capsys.readouterr()
        assert '"clean": true' in captured.out
        assert "gateway soak clean" in captured.out
        assert "kill + restore" in captured.out
        assert (tmp_path / "gateway-journal.jsonl").exists()

    def test_soak_without_faults_defaults_to_tmpdir(self, capsys):
        assert main([*self.ARGS]) == 0
        assert "gateway soak clean" in capsys.readouterr().out

    def test_bad_proxy_fault_spec_rejected(self, capsys):
        assert main([*self.ARGS, "--proxy-faults", "bogus=1"]) == 1
        assert "--proxy-faults" in capsys.readouterr().err

    def test_bad_listen_spec_rejected(self, capsys):
        assert main(["gateway", "--listen", "nonsense"]) == 1
        assert "--listen" in capsys.readouterr().err


class _FakeSoakReport:
    """A violating soak report, for the fail-fast plumbing."""

    def __init__(self):
        self.violations = ["[fake] t=1 the stamps ran backwards"]
        self.fate_mismatches = [("r-1", ("admit", None), ("shed", None))]
        self.lost = 0
        self.delivered = 1
        self.retries = 0
        self.killed = False
        self.replayed = 0
        self.requests_per_sec = 1.0

    def summary(self):
        return {"violations": 1, "fate_mismatches": 1}


class _FakeStormReport:
    """A violating storm report, for exercising the fail-fast plumbing
    without having to construct a real invariant-breaking workload."""

    def __init__(self):
        self.violations = ["[fake] t=1 the sky fell"]
        self.double_admitted = []
        self.hard_misses = 0
        self.killed = False
        self.kills = 0
        self.declared_down = 0
        self.restored = 0

    def to_dict(self):
        return {"violations": self.violations}


class TestFailFast:
    """``--fail-fast`` means exit 2 with a picklable RunExhausted on
    every target, the single-run storm targets included."""

    def test_service_violations_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.service.run_service_storm",
                            lambda *a, **kw: _FakeStormReport())
        assert main(["service", "--fail-fast"]) == 2
        err = capsys.readouterr().err
        assert "fail-fast" in err and "service" in err

    def test_service_violations_without_flag_exit_1(self, monkeypatch,
                                                    capsys):
        monkeypatch.setattr("repro.service.run_service_storm",
                            lambda *a, **kw: _FakeStormReport())
        assert main(["service"]) == 1

    def test_fabric_violations_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.fabric.run_fabric_storm",
                            lambda *a, **kw: _FakeStormReport())
        assert main(["fabric", "--fail-fast"]) == 2
        err = capsys.readouterr().err
        assert "fail-fast" in err and "fabric" in err

    def test_fabric_violations_without_flag_exit_1(self, monkeypatch,
                                                   capsys):
        monkeypatch.setattr("repro.fabric.run_fabric_storm",
                            lambda *a, **kw: _FakeStormReport())
        assert main(["fabric"]) == 1

    def test_gateway_violations_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.gateway.run_gateway_soak",
                            lambda *a, **kw: _FakeSoakReport())
        assert main(["gateway", "--fail-fast"]) == 2
        err = capsys.readouterr().err
        assert "fail-fast" in err and "gateway" in err

    def test_gateway_violations_without_flag_exit_1(self, monkeypatch,
                                                    capsys):
        monkeypatch.setattr("repro.gateway.run_gateway_soak",
                            lambda *a, **kw: _FakeSoakReport())
        assert main(["gateway"]) == 1
        err = capsys.readouterr().err
        assert "fate divergence" in err

    def test_storm_exhausted_round_trips_through_pickle(self):
        import pickle

        from repro.experiments.runner import _storm_exhausted

        exc = pickle.loads(pickle.dumps(_storm_exhausted(
            "fabric", 7, "[fake] t=1 the sky fell"
        )))
        assert exc.record.arm == "fabric"
        assert exc.record.system_id == 7
        assert exc.record.status == "failed"
        assert "gave up after 1 attempt(s)" in str(exc)

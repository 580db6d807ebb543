"""Integration tests for the evaluation campaign (Tables 2-5).

The full 6x10x4 campaign runs in well under a second, so these tests run
it for real and assert the qualitative structure the paper's conclusions
rest on.  A module-scoped fixture shares one campaign run.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_campaign, shape_checks, simulate_system, execute_system
from repro.experiments.campaign import run_overload_campaign
from repro.experiments.tables import (
    PAPER_TABLES,
    TABLE_ARMS,
    format_comparison,
    format_table,
)
from repro.rtsj import OverheadModel
from repro.workload import GenerationParameters, RandomSystemGenerator


@pytest.fixture(scope="module")
def campaign():
    return run_campaign()


SMALL = GenerationParameters(
    task_density=1.0, average_cost=3.0, std_deviation=0.0,
    server_capacity=4.0, server_period=6.0, nb_generation=2, seed=7,
)


class TestArms:
    def test_sim_and_exec_consume_identical_workloads(self):
        system = RandomSystemGenerator(SMALL).generate()[0]
        sim_result = simulate_system(system, "polling")
        exec_result = execute_system(system, "polling",
                                     overhead=OverheadModel.zero())
        assert sim_result.metrics.released == exec_result.metrics.released

    def test_zero_overhead_exec_never_interrupts_homogeneous(self):
        # with overheads off and homogeneous costs (3 < capacity 4) the
        # implementation has a 1 tu grace per event: no interruptions
        for system in RandomSystemGenerator(SMALL).generate():
            result = execute_system(system, "polling",
                                    overhead=OverheadModel.zero())
            assert result.metrics.interrupted == 0

    def test_exec_trace_is_valid(self):
        system = RandomSystemGenerator(SMALL).generate()[0]
        result = execute_system(system, "deferrable")
        result.trace.validate()

    def test_unknown_policy_rejected(self):
        system = RandomSystemGenerator(SMALL).generate()[0]
        with pytest.raises(KeyError):
            simulate_system(system, "sporadic")

    @pytest.mark.parametrize("verify", [False, True])
    def test_exec_rejects_an_unknown_trace_mode(self, verify):
        system = RandomSystemGenerator(SMALL).generate()[0]
        with pytest.raises(ValueError, match="trace_mode must be one of"):
            execute_system(system, trace_mode="compcat", verify=verify)

    @pytest.mark.parametrize("run", [simulate_system, execute_system])
    def test_check_mode_keeps_the_metrics_and_no_records(self, run):
        for system in RandomSystemGenerator(SMALL).generate():
            stored = run(system, "deferrable")
            checked = run(system, "deferrable", trace_mode="check")
            assert checked.metrics == stored.metrics
            assert len(stored.trace.segments) > 0
            assert len(checked.trace.segments) == 0
            assert len(checked.trace.events) == 0
            with pytest.raises(ValueError, match="stores no records"):
                run(system, "deferrable", trace_mode="check", verify=True)


class TestCampaignStructure:
    def test_all_arms_and_sets_present(self, campaign):
        assert set(campaign.tables) == {"ps_sim", "ps_exec", "ds_sim", "ds_exec"}
        for table in campaign.tables.values():
            assert set(table) == {(1, 0.0), (2, 0.0), (3, 0.0),
                                  (1, 2.0), (2, 2.0), (3, 2.0)}
            for metrics in table.values():
                assert len(metrics.runs) == 10

    def test_every_shape_check_holds(self, campaign):
        for check in shape_checks(campaign.tables):
            assert check.holds, check.description

    def test_campaign_is_deterministic(self, campaign):
        again = run_campaign(arms=("ps_sim",))
        for key, metrics in again.tables["ps_sim"].items():
            assert metrics.aart == campaign.tables["ps_sim"][key].aart
            assert metrics.asr == campaign.tables["ps_sim"][key].asr

    def test_metric_ranges(self, campaign):
        for table in campaign.tables.values():
            for metrics in table.values():
                assert 0.0 <= metrics.asr <= 1.0
                assert 0.0 <= metrics.air <= 1.0
                assert metrics.aart >= 0.0

    def test_unknown_arm_key(self, campaign):
        with pytest.raises(KeyError):
            campaign.table("edf_sim")

    @pytest.mark.parametrize("run", [run_campaign, run_overload_campaign])
    def test_unknown_arm_rejected_before_generating(self, run, monkeypatch):
        # an unknown name must not fall through to the DS execution arm
        def generate(self):
            raise AssertionError("generated systems for an unknown arm")

        monkeypatch.setattr(RandomSystemGenerator, "generate", generate)
        with pytest.raises(ValueError) as caught:
            run(arms=("ps_sim", "polling"))
        assert str(caught.value) == (
            "unknown arm 'polling'; choose from "
            "('ps_sim', 'ps_exec', 'ds_sim', 'ds_exec')"
        )


class TestTableFormatting:
    def test_format_table_layout(self, campaign):
        text = format_table(2, campaign.table(TABLE_ARMS[2]))
        assert text.startswith("Table 2.")
        assert "(1, 0)" in text and "(3, 2)" in text
        assert text.count("AART") == 2  # two row-blocks

    def test_format_comparison_includes_paper_values(self, campaign):
        text = format_comparison(3, campaign.table(TABLE_ARMS[3]))
        assert "paper" in text
        # the paper's Table 3 AART for (1,0)
        assert "12.24" in text

    def test_paper_tables_complete(self):
        for number, table in PAPER_TABLES.items():
            assert set(table) == {(1, 0.0), (2, 0.0), (3, 0.0),
                                  (1, 2.0), (2, 2.0), (3, 2.0)}
            for aart, air, asr in table.values():
                assert aart > 0 and 0 <= air <= 1 and 0 <= asr <= 1


class TestReport:
    def test_markdown_report_structure(self, campaign, tmp_path):
        from repro.experiments import generate_report

        path = tmp_path / "report.md"
        text = generate_report(path, campaign)
        assert path.read_text() == text
        for heading in ("Table 2", "Table 3", "Table 4", "Table 5",
                        "Shape checks", "Figures 2"):
            assert heading in text
        assert "All shape checks hold." in text
        # every set row appears in every table
        assert text.count("| (1,0) |") == 4
        # the scenario diagrams are embedded
        assert "h2@4: interrupted at 9" in text

"""Verification wiring through the campaign layers, and the golden-path
byte-identity guarantee when verification is off."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.campaign import (
    execute_system,
    run_campaign,
    simulate_system,
)
from repro.sim.servers import IdealDeferrableServer, IdealPollingServer
from repro.sim.trace import TraceEventKind
from repro.sim.trace_io import diff_traces, trace_from_dict, trace_to_dict
from repro.smp.campaign import run_multicore_system
from repro.verify import monitors_for_system, run_monitors
from repro.verify.chaos import _scenario_seed, _uni_system
from repro.verify.mutations import _selftest_system, mutation
from repro.workload.rng import PortableRandom
from repro.workload.spec import GenerationParameters

SERVERS = {"polling": IdealPollingServer, "deferrable": IdealDeferrableServer}


class TestSimulateSystemWiring:
    def test_verify_off_returns_no_report(self):
        result = simulate_system(_selftest_system(), "polling")
        assert result.report is None

    def test_verify_on_clean_system(self):
        for policy in ("polling", "deferrable"):
            result = simulate_system(_selftest_system(), policy, verify=True)
            assert result.report is not None
            assert result.report.ok, result.report.summary()
            assert result.trace.events_of(TraceEventKind.VIOLATION) == []

    def test_verified_trace_equals_unverified(self):
        """Byte-identity: a clean verified run records exactly the trace
        the unverified golden path records."""
        baseline = simulate_system(_selftest_system(), "polling")
        verified = simulate_system(_selftest_system(), "polling",
                                   verify=True)
        assert diff_traces(baseline.trace, verified.trace) == []
        assert trace_to_dict(baseline.trace) == trace_to_dict(verified.trace)

    def test_mutated_kernel_is_reported(self):
        with mutation("capacity-leak"):
            result = simulate_system(_selftest_system(), "polling",
                                     verify=True)
        assert result.report is not None
        assert "capacity-overdraw" in result.report.kinds()
        assert result.trace.events_of(TraceEventKind.VIOLATION) != []


class TestExecuteSystemWiring:
    def test_verify_on_clean_system(self):
        result = execute_system(_selftest_system(), "polling", verify=True)
        assert result.report is not None
        assert result.report.ok, result.report.summary()

    def test_verify_off_returns_no_report(self):
        assert execute_system(_selftest_system(), "polling").report is None


class TestMulticoreWiring:
    def test_partitioned_and_global_verify_clean(self):
        system = _selftest_system(dense=False)
        for mode in ("part-ff", "global-fp"):
            result = run_multicore_system(
                system, n_cores=2, mode=mode, verify=True
            )
            assert result.report is not None
            assert result.report.ok, (mode, result.report.summary())

    def test_verify_off_returns_no_report(self):
        system = _selftest_system(dense=False)
        result = run_multicore_system(system, n_cores=2, mode="part-ff")
        assert result.report is None


class TestCampaignWiring:
    def params(self):
        return (GenerationParameters(
            task_density=2.0, average_cost=0.5, std_deviation=0.1,
            server_capacity=2.0, server_period=10.0, nb_generation=2,
            seed=41, horizon_periods=6,
        ),)

    def test_verified_campaign_matches_unverified(self):
        baseline = run_campaign(sets=self.params(), arms=("ps_sim",))
        verified = run_campaign(sets=self.params(), arms=("ps_sim",),
                                verify=True)
        key = next(iter(baseline.tables["ps_sim"]))
        assert baseline.tables["ps_sim"][key] \
            == verified.tables["ps_sim"][key]

    def test_violations_fail_the_run_under_verify(self):
        from repro.experiments.campaign import RunPolicy

        policy = RunPolicy(max_retries=0)
        with mutation("capacity-leak"):
            clean = run_campaign(sets=self.params(), arms=("ps_sim",),
                                 run_policy=policy)
            verified = run_campaign(sets=self.params(), arms=("ps_sim",),
                                    run_policy=policy, verify=True)
        # without monitors the buggy kernel sails through; with them
        # every run carrying the leak is marked failed
        assert not clean.failures
        assert verified.failures
        assert any(
            "capacity-overdraw" in record.error
            for record in verified.failures
        )


class TestReloadedTraces:
    """A verified run's trace, saved as JSON and reloaded, sweeps to the
    run's own report."""

    def sweep_reloaded(self, system, policy, trace):
        reloaded = trace_from_dict(
            json.loads(json.dumps(trace_to_dict(trace)))
        )
        server = SERVERS[policy](system.server, name=policy.upper())
        return run_monitors(
            reloaded, monitors_for_system(system, servers=(server,)),
            horizon=system.horizon,
        )

    @pytest.mark.parametrize("policy", sorted(SERVERS))
    def test_chaos_systems(self, policy):
        # these deferrable runs include servers that run straight
        # through a replenishment, stored as one segment
        for index in range(60):
            seed = _scenario_seed(20260806, index)
            system = _uni_system(PortableRandom(seed), seed)
            result = simulate_system(system, policy, verify=True)
            report = self.sweep_reloaded(system, policy, result.trace)
            assert report.ok, (index, report.summary())
            assert report.violations == result.report.violations, index

    def test_stamped_violations_sweep_to_the_same_report(self):
        system = _selftest_system()
        with mutation("capacity-leak"):
            result = simulate_system(system, "polling", verify=True)
        assert result.trace.events_of(TraceEventKind.VIOLATION)
        report = self.sweep_reloaded(system, "polling", result.trace)
        assert report.kinds() == {"capacity-overdraw"}
        assert report.violations == result.report.violations

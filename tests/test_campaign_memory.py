"""A paper-campaign run frees its objects by reference counting.

When a run ends, each kernel drops what only the run needed (its event
heap and, on the VM, its threads' suspended generators) and
``execute_system`` closes its server once it has read the jobs.  So a
campaign leaves the cyclic collector nothing to find.  Verified runs,
overload runs, service storms and fabric storms free theirs too:
finished monitors drop their trace, a finished overload detector drops
its actions, which link back to the servers or the service that own
it, and a finished fabric's router and supervisor drop their link back
to the fabric.  Each case
runs with the collector off and counts what ``gc.collect()`` finds
after it.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import replace

import pytest

from repro.experiments.campaign import (
    ARMS,
    _run_arm,
    execute_system,
    run_campaign,
    run_overload_campaign,
    simulate_system,
)
from repro.fabric import FabricStormConfig, ShardKill, run_fabric_storm
from repro.service import StormConfig, run_service_storm
from repro.workload import PAPER_SETS, RandomSystemGenerator


def _cyclic_garbage_of(work) -> int:
    """Objects the cyclic collector finds unreachable after ``work()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("arm", ARMS)
def test_runs_of_one_arm_leave_no_cycles(arm):
    # d=3, s=2: the densest heterogeneous set, whose exec-arm handlers
    # get interrupted by their Timed budgets
    systems = RandomSystemGenerator(PAPER_SETS[5]).generate()

    def runs():
        for system in systems:
            _run_arm(arm, system, None, None)

    assert _cyclic_garbage_of(runs) == 0


@pytest.mark.parametrize("set_index", range(len(PAPER_SETS)))
def test_campaign_of_one_set_leaves_no_cycles(set_index):
    sets = (PAPER_SETS[set_index],)
    assert _cyclic_garbage_of(lambda: run_campaign(sets=sets)) == 0


def test_verified_simulations_leave_no_cycles():
    systems = RandomSystemGenerator(PAPER_SETS[5]).generate()

    def runs():
        for system in systems:
            assert simulate_system(system, "polling", verify=True).report.ok

    assert _cyclic_garbage_of(runs) == 0


def test_verified_executions_leave_no_cycles():
    systems = RandomSystemGenerator(PAPER_SETS[5]).generate()

    def runs():
        for system in systems:
            result = execute_system(system, "deferrable", verify=True)
            assert result.report.ok

    assert _cyclic_garbage_of(runs) == 0


def test_overload_campaign_leaves_no_cycles():
    sets = tuple(replace(params, nb_generation=2) for params in PAPER_SETS[:2])
    assert _cyclic_garbage_of(lambda: run_overload_campaign(sets=sets)) == 0


def test_skewed_service_storm_leaves_no_cycles():
    # the skew of the benchmark's admission_storm workload
    config = StormConfig(seed=1983, drift_ppm=40000.0, overrun_factor=1.6,
                         overrun_probability=0.5)
    assert _cyclic_garbage_of(
        lambda: run_service_storm(config).clean
    ) == 0


def test_fabric_storm_leaves_no_cycles():
    assert _cyclic_garbage_of(
        lambda: run_fabric_storm(FabricStormConfig(seed=3)).clean
    ) == 0


def test_fabric_kill_drill_leaves_no_cycles(tmp_path):
    # the behaviour lock's drill: a torn checkpoint tail, two restores
    config = FabricStormConfig(
        shards=3, seed=2,
        kills=(ShardKill(at=30.0, shard=0, corrupt_tail=True),
               ShardKill(at=55.0, shard=2)),
        rate=0.8, horizon=90.0, settle=40.0, sources=4,
        burst=(25.0, 40.0, 3.0),
    )

    def drill():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the torn tail is the drill
            assert run_fabric_storm(config, checkpoint_dir=tmp_path).clean

    assert _cyclic_garbage_of(drill) == 0

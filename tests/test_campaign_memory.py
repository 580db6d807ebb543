"""A paper-campaign run frees its objects by reference counting.

When a run ends, each kernel drops what only the run needed (its event
heap and, on the VM, its threads' suspended generators) and
``execute_system`` closes its server once it has read the jobs.  So a
campaign leaves the cyclic collector nothing to find.  Each case runs
with the collector off and counts what ``gc.collect()`` finds after it.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.campaign import ARMS, _run_arm, run_campaign
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

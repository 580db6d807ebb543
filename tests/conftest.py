"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.rtsj import (
    AbsoluteTime,
    Compute,
    NS_PER_UNIT,
    OverheadModel,
    PeriodicParameters,
    PriorityParameters,
    RealtimeThread,
    RelativeTime,
    RTSJVirtualMachine,
    WaitForNextPeriod,
)

M = NS_PER_UNIT  # 1 time unit in nanoseconds


def periodic_logic(cost_ns: int):
    """Thread logic burning ``cost_ns`` every period."""

    def logic(thread):
        while True:
            yield Compute(cost_ns)
            yield WaitForNextPeriod()

    return logic


def make_periodic_thread(name: str, cost: float, period: float,
                         priority: int, offset: float = 0.0) -> RealtimeThread:
    """A periodic VM thread with costs/periods in time units."""
    return RealtimeThread(
        periodic_logic(round(cost * M)),
        PriorityParameters(priority),
        PeriodicParameters(
            AbsoluteTime.from_nanos(round(offset * M)),
            RelativeTime.from_units(period),
        ),
        name=name,
    )


@pytest.fixture
def shadow_planes(monkeypatch) -> dict:
    """Every event each :class:`ExecutionTrace` records, by trace, in
    recording order: a plane's history after an online sweep has
    dropped the events it fed."""
    from repro.sim.trace import ExecutionTrace

    planes: dict = {}
    add_event = ExecutionTrace.add_event

    def recording(self, time, kind, subject, detail=""):
        add_event(self, time, kind, subject, detail)
        planes.setdefault(self, []).append(self.events[-1])

    monkeypatch.setattr(ExecutionTrace, "add_event", recording)
    return planes


@pytest.fixture
def zero_vm() -> RTSJVirtualMachine:
    """A VM with all overheads disabled (exact integer timelines)."""
    return RTSJVirtualMachine(overhead=OverheadModel.zero())


def segments_of(trace, entity: str) -> list[tuple[float, float]]:
    """Rounded [start, end) pairs of an entity's trace segments."""
    return [
        (round(s.start, 6), round(s.end, 6))
        for s in trace.segments_of(entity)
    ]

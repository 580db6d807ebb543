"""``TaskServerParameters`` — construction parameters for task servers.

The paper's sixth framework class: "a subclass of ``ReleaseParameters``
to construct a ``TaskServer``" (Section 3).  It fixes the server's
capacity (the ``cost`` of the underlying periodic schedulable), its
replenishment period and its priority.
"""

from __future__ import annotations

from ..rtsj.params import PriorityParameters, ReleaseParameters
from ..rtsj.time_types import AbsoluteTime, RelativeTime
from ..workload.spec import ServerSpec

__all__ = ["TaskServerParameters"]


class TaskServerParameters(ReleaseParameters):
    """Capacity, period and priority of a task server."""

    def __init__(
        self,
        capacity: RelativeTime,
        period: RelativeTime,
        priority: int,
        start: AbsoluteTime | None = None,
    ) -> None:
        if not isinstance(capacity, RelativeTime):
            raise ValueError(
                f"capacity must be a RelativeTime (use "
                f"RelativeTime.from_units(...)), got {capacity!r}"
            )
        if not isinstance(period, RelativeTime):
            raise ValueError(
                f"period must be a RelativeTime (use "
                f"RelativeTime.from_units(...)), got {period!r}"
            )
        if capacity.total_nanos <= 0:
            raise ValueError(
                f"server capacity must be positive, got {capacity!r}"
            )
        if period.total_nanos <= 0:
            raise ValueError(
                f"server period must be positive, got {period!r}"
            )
        if capacity.total_nanos > period.total_nanos:
            raise ValueError(
                f"server capacity {capacity!r} exceeds its period {period!r}"
            )
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError(
                f"priority must be an int, got {priority!r}"
            )
        if start is not None:
            if not isinstance(start, AbsoluteTime):
                raise ValueError(
                    f"start must be an AbsoluteTime, got {start!r}"
                )
            if start.total_nanos < 0:
                raise ValueError(
                    f"server start must be >= 0, got {start!r}"
                )
        super().__init__(cost=capacity, deadline=period)
        self.capacity = capacity
        self.period = period
        #: the capacity and period in nanoseconds, read on every release
        #: (both time values are immutable)
        self.capacity_ns = capacity.total_nanos
        self.period_ns = period.total_nanos
        self.scheduling = PriorityParameters(priority)
        self.start = start if start is not None else AbsoluteTime(0, 0)

    @property
    def priority(self) -> int:
        return self.scheduling.priority

    @property
    def utilization(self) -> float:
        """Processor share capacity/period."""
        return self.capacity_ns / self.period_ns

    @classmethod
    def from_spec(cls, spec: ServerSpec, priority: int | None = None
                  ) -> "TaskServerParameters":
        """Build from a workload :class:`~repro.workload.spec.ServerSpec`
        (time units are milliseconds)."""
        return cls(
            capacity=RelativeTime.from_units(spec.capacity),
            period=RelativeTime.from_units(spec.period),
            priority=priority if priority is not None else spec.priority,
        )

    def __repr__(self) -> str:
        return (
            f"TaskServerParameters(capacity={self.capacity!r}, "
            f"period={self.period!r}, priority={self.priority})"
        )

"""RTSS: a discrete-event real-time system simulator (paper Section 5).

Simulates single-processor real-time systems under Preemptive Fixed
Priority, EDF or D-OVER scheduling, optionally with an aperiodic task
server attached, and renders temporal diagrams of the runs.
"""

from .engine import EPS, Entity, EventQueue, PeriodicTaskEntity, SchedulingPolicy, Simulation
from .task import AperiodicJob, Job, JobState, PeriodicJob, PeriodicTask
from .trace import ExecutionTrace, Segment, TraceEvent, TraceEventKind
from .metrics import RunMetrics, SetMetrics, aggregate, measure_run
from .gantt import ascii_capacity, ascii_gantt, svg_gantt, svg_gantt_cores
from .trace_io import diff_traces, load_trace, save_trace, trace_from_dict, trace_to_dict
from .schedulers import (
    DOverResult,
    DOverScheduler,
    EarliestDeadlineFirstPolicy,
    FixedPriorityPolicy,
)
from .servers import (
    AperiodicServer,
    BackgroundServer,
    IdealDeferrableServer,
    IdealPollingServer,
    PriorityExchangeServer,
    SlackStealingServer,
    SporadicServer,
    TotalBandwidthServer,
)

__all__ = [
    "EPS",
    "Entity",
    "EventQueue",
    "PeriodicTaskEntity",
    "SchedulingPolicy",
    "Simulation",
    "AperiodicJob",
    "Job",
    "JobState",
    "PeriodicJob",
    "PeriodicTask",
    "ExecutionTrace",
    "Segment",
    "TraceEvent",
    "TraceEventKind",
    "RunMetrics",
    "SetMetrics",
    "aggregate",
    "measure_run",
    "ascii_capacity",
    "ascii_gantt",
    "svg_gantt",
    "svg_gantt_cores",
    "diff_traces",
    "load_trace",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
    "DOverResult",
    "DOverScheduler",
    "EarliestDeadlineFirstPolicy",
    "FixedPriorityPolicy",
    "AperiodicServer",
    "BackgroundServer",
    "IdealDeferrableServer",
    "IdealPollingServer",
    "PriorityExchangeServer",
    "SlackStealingServer",
    "SporadicServer",
    "TotalBandwidthServer",
]

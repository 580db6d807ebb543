"""Emulated RTSJ substrate: a deterministic virtual-time runtime.

This package substitutes for the paper's testbed (the TimeSys RTSJ
Reference Implementation on RT-Linux).  It provides the ``javax.realtime``
functionality the Task Server Framework of :mod:`repro.core` touches:
high-resolution time, parameter objects, realtime threads under a
preemptive fixed-priority scheduler, asynchronous events and handlers,
timers firing in interrupt context, ``Timed``/``Interruptible``
asynchronous transfer of control, and processing-group budget accounting
— all driven by the :class:`RTSJVirtualMachine` with a configurable
runtime-overhead model.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "NANOS_PER_MILLI": "time_types",
    "NS_PER_UNIT": "time_types",
    "AbsoluteTime": "time_types",
    "HighResolutionTime": "time_types",
    "RelativeTime": "time_types",
    "AperiodicParameters": "params",
    "PeriodicParameters": "params",
    "PriorityParameters": "params",
    "ProcessingGroupParameters": "params",
    "ReleaseParameters": "params",
    "SchedulingParameters": "params",
    "SporadicParameters": "params",
    "AwaitRelease": "instructions",
    "Compute": "instructions",
    "Instruction": "instructions",
    "Sleep": "instructions",
    "WaitForNextPeriod": "instructions",
    "AsynchronouslyInterruptedException": "interruptible",
    "Interruptible": "interruptible",
    "Timed": "interruptible",
    "OverheadModel": "overhead",
    "MAX_RT_PRIORITY": "thread",
    "MIN_RT_PRIORITY": "thread",
    "RealtimeThread": "thread",
    "Schedulable": "thread",
    "ThreadState": "thread",
    "PriorityScheduler": "scheduler",
    "RTSJVirtualMachine": "vm",
    "AsyncEvent": "async_event",
    "AsyncEventHandler": "async_event",
    "OneShotTimer": "timer",
    "PeriodicTimer": "timer",
    "Clock": "clock",
    "RealtimeClock": "clock",
})

__all__ = [
    "NANOS_PER_MILLI",
    "AbsoluteTime",
    "HighResolutionTime",
    "RelativeTime",
    "AperiodicParameters",
    "PeriodicParameters",
    "PriorityParameters",
    "ProcessingGroupParameters",
    "ReleaseParameters",
    "SchedulingParameters",
    "SporadicParameters",
    "AwaitRelease",
    "Compute",
    "Instruction",
    "Sleep",
    "WaitForNextPeriod",
    "AsynchronouslyInterruptedException",
    "Interruptible",
    "Timed",
    "OverheadModel",
    "MAX_RT_PRIORITY",
    "MIN_RT_PRIORITY",
    "RealtimeThread",
    "Schedulable",
    "ThreadState",
    "PriorityScheduler",
    "NS_PER_UNIT",
    "RTSJVirtualMachine",
    "AsyncEvent",
    "AsyncEventHandler",
    "OneShotTimer",
    "PeriodicTimer",
    "Clock",
    "RealtimeClock",
]

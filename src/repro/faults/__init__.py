"""Fault injection and overload resilience.

The paper's evaluation (Section 6) assumes well-behaved workloads: every
aperiodic job honours its declared cost and the RTSJ arm relies on
``Timed`` to clip capacity overruns.  This package models the *other*
operating region — tasks overrunning their WCET, event bursts, lost or
jittered activations, drifting timers — and the machinery a system needs
to stay correct there:

``repro.faults.injectors``
    Composable, seeded fault models applied to generated workloads
    (:class:`FaultPlan`) or to the ``ServableAsyncEvent`` fire path
    (:class:`FireFaultInjector`).  With no injectors, or when disabled,
    workloads and traces are byte-identical to the golden path.
``repro.faults.enforcement``
    Cost-overrun enforcement policies shared by the ideal simulator
    servers, the RTSS periodic entities and the RTSJ task servers:
    ``abort-job``, ``skip-next-release``, ``clip-to-budget`` and
    ``log-and-continue``.
``repro.faults.watchdog``
    A deadline-miss / overrun watchdog attachable to a
    :class:`~repro.sim.engine.Simulation` or an emulated RTSJ VM.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "OVERRUN_POLICIES": "enforcement",
    "EnforcementConfig": "enforcement",
    "FaultSummary": "enforcement",
    "summarize_faults": "enforcement",
    "DroppedActivation": "injectors",
    "EventBurst": "injectors",
    "ExecutionSkew": "injectors",
    "FaultInjector": "injectors",
    "FaultPlan": "injectors",
    "FireFaultInjector": "injectors",
    "ReleaseJitter": "injectors",
    "TimerDrift": "injectors",
    "WcetOverrun": "injectors",
    "DeadlineMissWatchdog": "watchdog",
})

__all__ = [
    "OVERRUN_POLICIES",
    "EnforcementConfig",
    "FaultSummary",
    "summarize_faults",
    "DroppedActivation",
    "EventBurst",
    "ExecutionSkew",
    "FaultInjector",
    "FaultPlan",
    "FireFaultInjector",
    "ReleaseJitter",
    "TimerDrift",
    "WcetOverrun",
    "DeadlineMissWatchdog",
]

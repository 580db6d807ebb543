"""On-line aperiodic response-time computation (paper Section 7).

Two analyses, both valid only when the server is the highest-priority
task in the system (the paper's standing assumption — otherwise the
analysis cannot be performed on-line at all, cf. Section 2.1):

* :func:`ideal_ps_response_time` — equations (1)-(4): the response time
  of an aperiodic task under the *standard* (resumable) Polling Server,
  computable at the task's arrival instant;
* :func:`implementation_ps_response_time` — equation (5): the response
  time under the paper's non-resumable RTSJ implementation, given the
  ``(Ia, Cpa)`` placement provided in O(1) by the
  :class:`~repro.core.queues.InstanceBucketQueue`.

Times here are plain floats in time units (analysis-level API; the
framework's internal nanosecond variant lives in
:meth:`repro.core.polling.PollingTaskServer.predict_response_time_ns`).
"""

from __future__ import annotations

import math

__all__ = [
    "cape",
    "ideal_ps_response_time",
    "ideal_ps_finish_time",
    "implementation_ps_response_time",
]


def cape(pending: list[tuple[float, float]], deadline: float) -> float:
    """``Cape(t, dk)``: cumulative cost of the pending aperiodic tasks
    with a deadline not after ``deadline`` (deadline-ordered service).

    ``pending`` is a list of ``(cost, absolute_deadline)`` pairs including
    the task under analysis.
    """
    return sum(c for c, d in pending if d <= deadline)


def ideal_ps_finish_time(
    t: float,
    workload: float,
    cs_t: float,
    capacity: float,
    period: float,
    start: float = 0.0,
) -> float:
    """Completion instant of ``workload`` units of aperiodic demand under
    the standard Polling Server, evaluated at time ``t``.

    ``cs_t`` is the server capacity still available in the instance
    active at ``t`` (0 between instances).  Implements equations (1)-(4)
    with the off-by-one at exact capacity multiples fixed: the paper's
    closed form ``(Fk + Gk)Ts + Rk`` yields a zero last-instance residue
    when the residual demand is an exact multiple of the capacity; we use
    ``F = ceil(residual / capacity)`` and a positive residue instead,
    which agrees with the paper everywhere else.
    """
    if workload < 0:
        raise ValueError(f"workload must be >= 0, got {workload}")
    if cs_t < 0 or cs_t > capacity:
        raise ValueError(f"cs_t must be within [0, {capacity}], got {cs_t}")
    if capacity <= 0 or period <= 0 or capacity > period:
        raise ValueError("need 0 < capacity <= period")
    if workload == 0:
        return t
    # index of the first server activation strictly after t
    g = math.floor((t - start) / period) + 1
    # the live capacity is only usable until the next activation refills
    # the budget anyway; clamping makes the closed form exact when
    # cs(t) exceeds the time to the boundary (service then continues
    # seamlessly into the refilled instance)
    cs_usable = min(cs_t, start + g * period - t)
    if workload <= cs_usable:
        # equation (1), first case: served entirely in the current instance
        return t + workload
    residual = workload - cs_usable
    # at least one more instance: a denormal residual / capacity
    # underflows to 0
    f = max(1, math.ceil(residual / capacity))
    last_residue = residual - (f - 1) * capacity
    return start + (g + f - 1) * period + last_residue


def ideal_ps_response_time(
    release: float,
    pending: list[tuple[float, float]],
    cost: float,
    deadline: float,
    cs_t: float,
    capacity: float,
    period: float,
    start: float = 0.0,
) -> float:
    """``Ra`` of equations (1)-(4): the response time of a task released
    at ``release`` with the given ``cost`` and absolute ``deadline``,
    against the ``pending`` aperiodic backlog (``(cost, deadline)`` pairs,
    *excluding* the new task), under deadline-ordered service.
    """
    workload = cape(pending + [(cost, deadline)], deadline)
    finish = ideal_ps_finish_time(
        release, workload, cs_t, capacity, period, start
    )
    return finish - release


def implementation_ps_response_time(
    release: float,
    instance: int,
    cumulative_before: float,
    cost: float,
    period: float,
    start: float = 0.0,
) -> float:
    """Equation (5): ``Ra = (Ia*Ts + Cpa + Ca) - ra``.

    ``instance`` is the absolute index of the server instance that will
    run the handler (``Ia``), ``cumulative_before`` the summed declared
    cost of the handlers scheduled before it in that instance (``Cpa``).
    Both come straight from an
    :class:`~repro.core.queues.InstanceBucketQueue` placement, making the
    computation O(1).
    """
    if instance < 0:
        raise ValueError(f"instance must be >= 0, got {instance}")
    if cumulative_before < 0 or cost <= 0:
        raise ValueError("need cumulative_before >= 0 and cost > 0")
    finish = start + instance * period + cumulative_before + cost
    return finish - release

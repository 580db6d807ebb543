"""The standard monitor battery for one generated system.

:func:`monitors_for_system` picks the invariant monitors of
:mod:`~repro.verify.invariants` that apply to a generated system and
its live simulator servers; :func:`server_family` and
:func:`periodic_job_costs` are the two facts it reads off them.
"""

from __future__ import annotations

from ..sim.servers import (
    IdealDeferrableServer,
    IdealPollingServer,
    SporadicServer,
)
from ..workload.spec import GeneratedSystem, PeriodicTaskSpec
from .invariants import (
    BreakerMonitor,
    EDFOrderMonitor,
    FixedPriorityMonitor,
    MonotoneClockMonitor,
    NonOverlapMonitor,
    ReleaseAccountingMonitor,
    ServerCapacityMonitor,
    TraceMonitor,
)

__all__ = ["monitors_for_system", "periodic_job_costs", "server_family"]


def server_family(server: object) -> str | None:
    """The capacity-accounting family of a sim server instance, or
    ``None`` for families without a budgeted account (background,
    slack-stealing, TBS) or with ledger accounting (priority exchange).
    """
    if isinstance(server, IdealPollingServer):
        return "polling"
    if isinstance(server, IdealDeferrableServer):
        return "deferrable"
    if isinstance(server, SporadicServer):
        return "sporadic"
    return None


def periodic_job_costs(tasks: tuple[PeriodicTaskSpec, ...] | list,
                       horizon: float) -> dict[str, float]:
    """Per-instance execution demand (``"name#k"`` keys) up to the
    horizon, using the *actual* cost when a fault inflated it."""
    costs: dict[str, float] = {}
    for spec in tasks:
        demand = getattr(spec, "execution_cost", spec.cost)
        instance = 0
        while spec.offset + instance * spec.period < horizon - 1e-9:
            costs[f"{spec.name}#{instance}"] = demand
            instance += 1
    return costs


def monitors_for_system(
    system: GeneratedSystem,
    servers: tuple = (),
    policy: str = "fp",
    core_of: dict[str, int] | None = None,
    check_demand: bool = True,
    check_boundary: bool = True,
    strict_serve: bool = False,
) -> list[TraceMonitor]:
    """The standard monitor battery for one generated system.

    ``servers`` holds the live sim-server instances (so the monitors see
    the *effective* specs — e.g. the pooled capacity of a global
    multicore server); ``policy`` picks the ordering monitor (``"fp"``
    or ``"edf"`` over the periodic tasks); ``core_of`` scopes ordering
    checks per core for partitioned placements.  ``check_demand`` should
    be off when enforcement legitimately cuts execution, and
    ``check_boundary`` off for drifting-clock (exec) arms.
    """
    costs = {f"h{e.event_id}": e.cost for e in system.events}
    costs.update(periodic_job_costs(system.periodic_tasks, system.horizon))
    monitors: list[TraceMonitor] = [
        NonOverlapMonitor(),
        MonotoneClockMonitor(),
        BreakerMonitor(),
        ReleaseAccountingMonitor(
            costs=costs, check_demand=check_demand,
            strict_serve=strict_serve,
        ),
    ]
    if system.periodic_tasks:
        if policy == "fp":
            monitors.append(FixedPriorityMonitor(
                {t.name: t.priority for t in system.periodic_tasks},
                core_of=core_of,
            ))
        elif policy == "edf":
            monitors.append(EDFOrderMonitor(
                {t.name: t.effective_deadline
                 for t in system.periodic_tasks},
                core_of=core_of,
            ))
        else:
            raise ValueError(
                f"policy must be 'fp' or 'edf', got {policy!r}"
            )
    for server in servers:
        family = server_family(server)
        if family is not None:
            monitors.append(ServerCapacityMonitor(
                server.name, server.spec.capacity, server.spec.period,
                family=family, check_boundary=check_boundary,
            ))
    return monitors

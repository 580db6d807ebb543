"""Runtime verification: schedule sanitizer, oracles, chaos campaign.

Turns every simulation or emulated execution into a self-checking run:

* :mod:`~repro.verify.invariants` — monitors swept over a finished
  trace with :func:`run_monitors`, or fed as records come through one
  :class:`Sweep` (non-overlap, monotone clocks,
  FP/EDF/D-OVER ordering legality, server capacity conservation,
  release accounting, circuit-breaker state legality);
  :func:`stamp_violations` marks the verdicts on the trace;
* :mod:`~repro.verify.admission` — the Section 7 admission protocol,
  swept post-hoc over every service and fabric timeline and online
  over a serving gateway's; :mod:`~repro.verify.gateway` adds the
  gateway's ingestion protocol;
* :mod:`~repro.verify.oracle` — post-run comparison against the paper's
  closed forms (equations (1)-(5), the server-aware RTA, the ideal-PS
  admission test);
* :mod:`~repro.verify.differential` — the simulator arm vs the emulated
  RTSJ arm on the same system, divergence beyond calibrated tolerance;
* :mod:`~repro.verify.chaos` — a seeded campaign of random systems ×
  fault plans × overload bursts, monitors-on, with greedy shrinking of
  failures to a minimal reproducing witness;
* :mod:`~repro.verify.mutations` — deliberate scheduler bugs proving
  each monitor family non-vacuous (test infrastructure only).

Everything is opt-in, and all but a serving gateway's protocol sweep
runs after the run: the kernels never call into this package, so a
verified run executes exactly as an unverified one, and only its trace
gains a VIOLATION event per violation.
"""

from __future__ import annotations

from ..sim.servers import (
    IdealDeferrableServer,
    IdealPollingServer,
    SporadicServer,
)
from ..workload.spec import GeneratedSystem, PeriodicTaskSpec
from .admission import AdmissionProtocolMonitor
from .differential import DifferentialTolerance, differential_check
from .gateway import GatewayProtocolMonitor
from .invariants import (
    BreakerMonitor,
    DOverLegalityMonitor,
    EDFOrderMonitor,
    FixedPriorityMonitor,
    MonotoneClockMonitor,
    NonOverlapMonitor,
    ReleaseAccountingMonitor,
    ServerCapacityMonitor,
    Sweep,
    TraceMonitor,
    run_monitors,
    stamp_violations,
)
from .oracle import (
    admission_oracle,
    polling_response_oracle,
    predicted_polling_finishes,
    rta_oracle,
)
from .violations import VerificationError, VerificationReport, Violation

__all__ = [
    "Violation",
    "VerificationReport",
    "VerificationError",
    "TraceMonitor",
    "Sweep",
    "run_monitors",
    "stamp_violations",
    "NonOverlapMonitor",
    "MonotoneClockMonitor",
    "FixedPriorityMonitor",
    "EDFOrderMonitor",
    "DOverLegalityMonitor",
    "ServerCapacityMonitor",
    "ReleaseAccountingMonitor",
    "BreakerMonitor",
    "polling_response_oracle",
    "admission_oracle",
    "rta_oracle",
    "predicted_polling_finishes",
    "DifferentialTolerance",
    "AdmissionProtocolMonitor",
    "GatewayProtocolMonitor",
    "differential_check",
    "monitors_for_system",
    "server_family",
    "periodic_job_costs",
]


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

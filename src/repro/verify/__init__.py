"""Runtime verification: schedule sanitizer, oracles, chaos campaign.

Turns every simulation or emulated execution into a self-checking run:

* :mod:`~repro.verify.invariants` — monitors swept over a finished
  trace with :func:`run_monitors`, or fed as records come through one
  :class:`Sweep` (non-overlap, monotone clocks,
  FP/EDF/D-OVER ordering legality, server capacity conservation,
  release accounting, circuit-breaker state legality);
  :func:`stamp_violations` marks the verdicts on the trace;
  :func:`~repro.verify.battery.monitors_for_system` picks the battery
  that applies to one generated system;
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

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "AdmissionProtocolMonitor": "admission",
    "DifferentialTolerance": "differential",
    "differential_check": "differential",
    "GatewayProtocolMonitor": "gateway",
    "BreakerMonitor": "invariants",
    "DOverLegalityMonitor": "invariants",
    "EDFOrderMonitor": "invariants",
    "FixedPriorityMonitor": "invariants",
    "MonotoneClockMonitor": "invariants",
    "NonOverlapMonitor": "invariants",
    "ReleaseAccountingMonitor": "invariants",
    "ServerCapacityMonitor": "invariants",
    "Sweep": "invariants",
    "TraceMonitor": "invariants",
    "run_monitors": "invariants",
    "stamp_violations": "invariants",
    "admission_oracle": "oracle",
    "polling_response_oracle": "oracle",
    "predicted_polling_finishes": "oracle",
    "rta_oracle": "oracle",
    "VerificationError": "violations",
    "VerificationReport": "violations",
    "Violation": "violations",
    "monitors_for_system": "battery",
    "server_family": "battery",
    "periodic_job_costs": "battery",
})

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

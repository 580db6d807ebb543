"""Online admission service with digital-twin re-planning (PR 6).

The service layer turns the offline admission arithmetic into a
long-running service whose execution steps, heartbeats and client
retries are timer actions on one logical-time scheduler:

* :mod:`repro.service.requests` — client-facing request/ticket types
  and the idempotency cache;
* :mod:`repro.service.backoff` — deterministic exponential backoff with
  jitter (shared with the campaign retry path);
* :mod:`repro.service.clock` — the scheduler (:class:`VirtualClock`:
  a timer heap and a ready queue, advanced synchronously) and the wall
  clock that stamps and drives it in deployment;
* :mod:`repro.service.planner` — O(1) admission + in-place incremental
  schedule repair (local → renegotiate → degrade);
* :mod:`repro.service.twin` — the digital twin reconciling promises
  against actual execution, with the divergence taxonomy;
* :mod:`repro.service.checkpoint` — write-ahead JSONL op log and its
  replay (restart-identical twin state);
* :mod:`repro.service.service` — the :class:`AdmissionService` itself
  plus the well-behaved :class:`ServiceClient`, which retries against a
  service or a fabric router; its ``finish()`` sweeps
  the trace with :class:`~repro.verify.admission.AdmissionProtocolMonitor`;
* :mod:`repro.service.storm` — the seeded Poisson-storm harness.
"""

from .backoff import DEFAULT_BACKOFF, BackoffPolicy
from .checkpoint import CheckpointError, CheckpointLog, replay_ops
from .clock import ClockPause, VirtualClock, WallClock
from .planner import IncrementalPlanner, PlannedJob, RepairResult
from .requests import (
    RETRYABLE,
    AdmissionTicket,
    Decision,
    EventRequest,
    IdempotencyCache,
)
from .service import (
    AdmissionService,
    DrainReport,
    ServiceClient,
    ServiceConfig,
)
from .storm import (
    StormConfig,
    StormReport,
    default_storm_service_config,
    run_service_storm,
)
from .twin import (
    BUDGET_DRIFT,
    DEADLINE_SLIP,
    HEARTBEAT_MISS,
    DigitalTwin,
    Divergence,
    TwinConfig,
)

__all__ = [
    "AdmissionService",
    "AdmissionTicket",
    "BUDGET_DRIFT",
    "BackoffPolicy",
    "CheckpointError",
    "CheckpointLog",
    "ClockPause",
    "DEADLINE_SLIP",
    "DEFAULT_BACKOFF",
    "Decision",
    "DigitalTwin",
    "Divergence",
    "DrainReport",
    "EventRequest",
    "HEARTBEAT_MISS",
    "IdempotencyCache",
    "IncrementalPlanner",
    "PlannedJob",
    "RETRYABLE",
    "RepairResult",
    "ServiceClient",
    "ServiceConfig",
    "StormConfig",
    "StormReport",
    "TwinConfig",
    "VirtualClock",
    "WallClock",
    "default_storm_service_config",
    "replay_ops",
    "run_service_storm",
]

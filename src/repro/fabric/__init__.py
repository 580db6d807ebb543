"""Sharded admission fabric: supervised shards behind one router (PR 8).

Scales the PR 6 :class:`~repro.service.service.AdmissionService` out
horizontally:

* :mod:`repro.fabric.placement` — consistent source → shard placement
  on the SMP bin-packing machinery, with per-shard failover reserve;
* :mod:`repro.fabric.router` — the client-facing edge: fabric-level
  idempotency, per-shard circuit breakers and retryable refusals,
  which the :class:`~repro.service.service.ServiceClient` retries;
* :mod:`repro.fabric.supervisor` — the control plane: heartbeat
  sampling, death declaration, failover / brown-out, checkpoint
  restore;
* :mod:`repro.fabric.fabric` — :class:`AdmissionFabric` composing the
  shards, router, and supervisor on one shared clock, with merged-trace
  verification via :class:`~repro.verify.admission.AdmissionProtocolMonitor`;
* :mod:`repro.fabric.storm` — the kill-the-shard chaos storm.
"""

from .fabric import AdmissionFabric, FabricConfig, FabricError
from .placement import SourcePlacement, place_sources
from .router import ShardRouter
from .storm import (
    FabricStormConfig,
    FabricStormReport,
    ShardKill,
    run_fabric_storm,
)
from .supervisor import Supervisor, SupervisorConfig

__all__ = [
    "AdmissionFabric",
    "FabricConfig",
    "FabricError",
    "FabricStormConfig",
    "FabricStormReport",
    "ShardKill",
    "ShardRouter",
    "SourcePlacement",
    "Supervisor",
    "SupervisorConfig",
    "place_sources",
    "run_fabric_storm",
]

"""repro.smp: multicore (SMP) scheduling on *m* identical cores.

The paper's servers and the RTSS simulator are strictly uniprocessor;
this subsystem generalises them following Nogueira & Pinho
(arXiv:1106.2766, server-based multiprocessor scheduling) and exploits
the determinism/periodicity properties of Grolleau et al.
(arXiv:1305.3849) as testable invariants:

* :class:`MulticoreSimulation` — the *m*-core discrete-event kernel
  (shared clock, per-core run state, migration accounting);
* partitioned placement — :func:`partition_tasks` with first-/worst-/
  best-fit decreasing-utilization heuristics and explicit rejection;
* global scheduling — :class:`GlobalFixedPriorityPolicy` and
  :class:`GlobalEDFPolicy` (top-*m* selection, affinity-preserving);
* per-core + aggregate AART/AIR/ASR metrics and utilization;
* an end-to-end campaign (:func:`run_multicore_campaign`) sharing the
  hardening (timeout/retry/checkpoint) and worker pool of the
  uniprocessor campaign executor.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "MulticoreSimulation": "engine",
    "PLACEMENT_HEURISTICS": "partition",
    "Partition": "partition",
    "PartitionError": "partition",
    "partition_tasks": "partition",
    "AperiodicRouter": "policies",
    "GlobalEDFPolicy": "policies",
    "GlobalFixedPriorityPolicy": "policies",
    "MulticorePolicy": "policies",
    "PartitionedPolicy": "policies",
    "CoreMetrics": "metrics",
    "MulticoreRunMetrics": "metrics",
    "measure_multicore_run": "metrics",
    "multicore_metrics_from_dict": "metrics",
    "multicore_metrics_to_dict": "metrics",
    "MULTICORE_MODES": "campaign",
    "MulticoreCampaignResult": "campaign",
    "MulticoreParameters": "campaign",
    "MulticoreSystemResult": "campaign",
    "build_multicore_system": "campaign",
    "run_multicore_campaign": "campaign",
    "run_multicore_overload_campaign": "campaign",
    "run_multicore_system": "campaign",
    "format_multicore_campaign": "tables",
    "format_multicore_table": "tables",
})

__all__ = [
    "MulticoreSimulation",
    "PLACEMENT_HEURISTICS",
    "Partition",
    "PartitionError",
    "partition_tasks",
    "AperiodicRouter",
    "GlobalEDFPolicy",
    "GlobalFixedPriorityPolicy",
    "MulticorePolicy",
    "PartitionedPolicy",
    "CoreMetrics",
    "MulticoreRunMetrics",
    "measure_multicore_run",
    "multicore_metrics_from_dict",
    "multicore_metrics_to_dict",
    "MULTICORE_MODES",
    "MulticoreCampaignResult",
    "MulticoreParameters",
    "MulticoreSystemResult",
    "build_multicore_system",
    "run_multicore_campaign",
    "run_multicore_overload_campaign",
    "run_multicore_system",
    "format_multicore_campaign",
    "format_multicore_table",
]

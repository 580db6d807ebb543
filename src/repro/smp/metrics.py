"""Per-core and aggregate metrics for multicore runs.

Extends the paper's AART / AIR / ASR measures (uniprocessor
:mod:`repro.sim.metrics`) with the two quantities that only exist on SMP:
per-core breakdowns (each core's share of the aperiodic service and its
utilization) and the migration count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.metrics import RunMetrics, measure_run
from ..sim.task import AperiodicJob
from ..sim.trace import ExecutionTrace, TraceEventKind

__all__ = [
    "CoreMetrics",
    "MulticoreRunMetrics",
    "measure_multicore_run",
    "multicore_metrics_to_dict",
    "multicore_metrics_from_dict",
]


@dataclass(frozen=True)
class CoreMetrics:
    """One core's view of a run."""

    core: int
    metrics: RunMetrics
    #: fraction of the horizon the core spent executing anything
    utilization: float


@dataclass(frozen=True)
class MulticoreRunMetrics:
    """Per-core breakdown plus the aggregate the paper's tables report."""

    per_core: tuple[CoreMetrics, ...]
    aggregate: RunMetrics
    migrations: int
    #: jobs whose serving core could not be determined (never executed)
    unattributed: int = 0

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def total_utilization(self) -> float:
        """Sum of per-core utilizations (in [0, n_cores])."""
        return sum(c.utilization for c in self.per_core)


def _core_of_job(trace: ExecutionTrace, job_name: str) -> int | None:
    """The core that *finished* a job: core of its last labelled segment."""
    core = None
    for segment in trace.segments:
        if segment.job == job_name and segment.core is not None:
            core = segment.core
    return core


def measure_multicore_run(
    jobs: list[AperiodicJob],
    trace: ExecutionTrace,
    n_cores: int,
    horizon: float,
    core_of_job: dict[str, int] | None = None,
) -> MulticoreRunMetrics:
    """Compute one multicore run's metrics.

    ``core_of_job`` pins each aperiodic job to the core whose server it
    was routed to (the partitioned case, where attribution is a design
    input); without it a job is attributed to the core that executed its
    last segment (the global case, where attribution is an outcome).
    Jobs that never ran and have no pinned core count only in the
    aggregate and in ``unattributed``.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    per_core_jobs: dict[int, list[AperiodicJob]] = {
        k: [] for k in range(n_cores)
    }
    unattributed = 0
    for job in jobs:
        core = None
        if core_of_job is not None:
            core = core_of_job.get(job.name)
        if core is None:
            core = _core_of_job(trace, job.name)
        if core is None:
            unattributed += 1
            continue
        if not 0 <= core < n_cores:
            raise ValueError(
                f"job {job.name!r} attributed to core {core}, but the run "
                f"had {n_cores} cores"
            )
        per_core_jobs[core].append(job)
    busy = [0.0] * n_cores
    for segment in trace.segments:
        if segment.core is not None and 0 <= segment.core < n_cores:
            busy[segment.core] += segment.duration
    return MulticoreRunMetrics(
        per_core=tuple(
            CoreMetrics(
                core=k,
                metrics=measure_run(per_core_jobs[k]),
                utilization=min(busy[k] / horizon, 1.0),
            )
            for k in range(n_cores)
        ),
        aggregate=measure_run(jobs),
        migrations=len(trace.events_of(TraceEventKind.MIGRATION)),
        unattributed=unattributed,
    )


def multicore_metrics_to_dict(metrics: MulticoreRunMetrics) -> dict:
    """A JSON-serialisable form (checkpoint payloads round-trip this)."""
    return {
        "per_core": [
            {
                "core": c.core,
                "metrics": c.metrics.to_dict(),
                "utilization": c.utilization,
            }
            for c in metrics.per_core
        ],
        "aggregate": metrics.aggregate.to_dict(),
        "migrations": metrics.migrations,
        "unattributed": metrics.unattributed,
    }


def multicore_metrics_from_dict(data: dict) -> MulticoreRunMetrics:
    """Rebuild :class:`MulticoreRunMetrics` from its dict form."""
    return MulticoreRunMetrics(
        per_core=tuple(
            CoreMetrics(
                core=c["core"],
                metrics=RunMetrics.from_dict(c["metrics"]),
                utilization=c["utilization"],
            )
            for c in data["per_core"]
        ),
        aggregate=RunMetrics.from_dict(data["aggregate"]),
        migrations=data["migrations"],
        unattributed=data.get("unattributed", 0),
    )

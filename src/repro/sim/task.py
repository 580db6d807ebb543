"""Job and task models for the RTSS discrete-event simulator.

The simulator distinguishes *tasks* (recurring sources of work) from
*jobs* (single activations with a remaining-execution-time state).
Periodic tasks release one job per period; aperiodic events are released
as standalone :class:`AperiodicJob` instances that are handed to a task
server (or scheduled directly, e.g. in background or D-OVER mode).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from ..workload.spec import PeriodicTaskSpec

__all__ = ["JobState", "Job", "PeriodicTask", "PeriodicJob", "AperiodicJob"]


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"      # released, waiting for the processor
    RUNNING = "running"      # currently executing
    PREEMPTED = "preempted"  # started, then displaced; will resume
    COMPLETED = "completed"  # all execution demand consumed
    ABORTED = "aborted"      # abandoned (D-OVER) or interrupted (exec arm)


_job_counter = itertools.count()


@dataclass
class Job:
    """A single activation: some execution demand released at some time."""

    name: str
    release: float
    cost: float
    deadline: float | None = None
    value: float | None = None
    job_id: int = field(default_factory=lambda: next(_job_counter))

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise ValueError(f"job cost must be > 0, got {self.cost}")
        if self.release < 0:
            raise ValueError(f"job release must be >= 0, got {self.release}")
        self.remaining: float = self.cost
        self.state: JobState = JobState.PENDING
        self.start_time: float | None = None
        self.finish_time: float | None = None

    @property
    def started(self) -> bool:
        """True once the job has received any processor time."""
        return self.start_time is not None

    @property
    def done(self) -> bool:
        """True when the job left the system (completed or aborted)."""
        return self.state in (JobState.COMPLETED, JobState.ABORTED)

    @property
    def response_time(self) -> float | None:
        """finish - release for completed jobs, else ``None``."""
        if self.state is JobState.COMPLETED and self.finish_time is not None:
            return self.finish_time - self.release
        return None

    def laxity(self, now: float) -> float:
        """Deadline slack at ``now``; requires a deadline."""
        if self.deadline is None:
            raise ValueError(f"job {self.name!r} has no deadline")
        return self.deadline - now - self.remaining

    def consume(self, amount: float) -> None:
        """Charge ``amount`` of execution time against the job."""
        if amount < 0:
            raise ValueError(f"cannot consume negative time {amount}")
        if amount > self.remaining + 1e-9:
            raise ValueError(
                f"job {self.name!r} asked to consume {amount} "
                f"with only {self.remaining} remaining"
            )
        self.remaining = max(0.0, self.remaining - amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name} rel={self.release} "
            f"cost={self.cost} rem={self.remaining:.3f} {self.state.value}>"
        )


@dataclass
class PeriodicJob(Job):
    """One activation of a periodic task.

    ``declared_cost`` is the WCET the analysis budgeted for; ``cost``
    (inherited) is the true demand.  They differ only under an injected
    WCET overrun (``PeriodicTaskSpec.actual_cost``).
    """

    task: "PeriodicTask | None" = None
    instance: int = 0
    declared_cost: float | None = None

    @property
    def budgeted_cost(self) -> float:
        """The declared WCET enforcement budgets against."""
        return self.declared_cost if self.declared_cost is not None else self.cost


class PeriodicTask:
    """A periodic task: releases one :class:`PeriodicJob` per period."""

    def __init__(self, spec: PeriodicTaskSpec) -> None:
        self.spec = spec
        self.jobs: list[PeriodicJob] = []
        # spec scalars cached off the (immutable-after-validation) spec:
        # release_job is the kernel's release hot path and the property
        # indirections dominate its cost otherwise
        self._name = spec.name
        self._offset = spec.offset
        self._period = spec.period
        self._exec_cost = spec.execution_cost
        self._rel_deadline = spec.effective_deadline
        self._declared_cost = spec.cost

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def priority(self) -> int:
        return self.spec.priority

    def release_job(self, instance: int) -> PeriodicJob:
        """Create the job for activation number ``instance`` (0-based).

        The dataclass constructor (and its ``__post_init__`` validation)
        is bypassed on this path: the spec already guarantees
        ``execution_cost > 0`` and ``offset >= 0``/``period > 0``, which
        are exactly the conditions ``Job.__post_init__`` would check.
        """
        release = self._offset + instance * self._period
        cost = self._exec_cost
        job = PeriodicJob.__new__(PeriodicJob)
        job.name = f"{self._name}#{instance}"
        job.release = release
        job.cost = cost
        job.deadline = release + self._rel_deadline
        job.value = None
        job.job_id = next(_job_counter)
        job.task = self
        job.instance = instance
        job.declared_cost = self._declared_cost
        job.remaining = cost
        job.state = JobState.PENDING
        job.start_time = None
        job.finish_time = None
        self.jobs.append(job)
        return job

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PeriodicTask {self.spec.name} C={self.spec.cost} T={self.spec.period}>"


class AperiodicJob(Job):
    """An aperiodic activation, typically served by a task server.

    ``declared_cost`` is what admission control sees; ``cost`` (inherited)
    is the true execution demand.  They coincide unless a scenario models
    a mis-declared handler (paper Scenario 3).

    Fields are set directly rather than through the dataclass
    constructor, as :meth:`PeriodicTask.release_job` does: every
    aperiodic event of a campaign run builds one job here.  The order is
    ``Job``'s: the ``job_id`` is drawn first, then ``Job.__post_init__``'s
    checks run, then the declared cost is checked.
    """

    def __init__(
        self,
        name: str,
        release: float,
        cost: float,
        declared_cost: float | None = None,
        deadline: float | None = None,
        value: float | None = None,
    ) -> None:
        self.name = name
        self.release = release
        self.cost = cost
        self.deadline = deadline
        self.value = value
        self.job_id = next(_job_counter)
        if cost <= 0:
            raise ValueError(f"job cost must be > 0, got {cost}")
        if release < 0:
            raise ValueError(f"job release must be >= 0, got {release}")
        self.remaining = cost
        self.state = JobState.PENDING
        self.start_time = None
        self.finish_time = None
        self.declared_cost = declared_cost if declared_cost is not None else cost
        if self.declared_cost <= 0:
            raise ValueError(
                f"declared_cost must be > 0, got {self.declared_cost}"
            )
        #: set by the execution arm when a Timed budget interrupts the handler
        self.interrupted: bool = False

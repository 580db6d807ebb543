"""Evaluation metrics (paper Section 6.1).

For one run the paper measures, over the aperiodic events of the system:

* the **average response time** of *served* aperiodics,
* the **interrupted-aperiodics ratio** (events whose handler was cut by
  the capacity-enforcement mechanism; always 0 in the ideal simulator),
* the **served-aperiodics ratio** (events completed within the
  observation horizon).

Per set of systems it then averages each measure, yielding AART, AIR and
ASR — the rows of Tables 2-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .task import AperiodicJob, JobState

__all__ = ["RunMetrics", "SetMetrics", "measure_run", "aggregate"]


@dataclass(frozen=True)
class RunMetrics:
    """Metrics of one system's run (one simulation or one execution)."""

    released: int
    served: int
    interrupted: int
    average_response_time: float
    response_times: tuple[float, ...]

    @property
    def served_ratio(self) -> float:
        """SR: served / released (1.0 for an empty system)."""
        return self.served / self.released if self.released else 1.0

    @property
    def interrupted_ratio(self) -> float:
        """IR: interrupted / released (0.0 for an empty system)."""
        return self.interrupted / self.released if self.released else 0.0

    def to_dict(self) -> dict:
        """A JSON-serialisable form (campaign checkpoints round-trip it)."""
        return {
            "released": self.released,
            "served": self.served,
            "interrupted": self.interrupted,
            "average_response_time": self.average_response_time,
            "response_times": list(self.response_times),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunMetrics":
        """Rebuild a :class:`RunMetrics` from :meth:`to_dict`'s form."""
        return cls(
            released=data["released"],
            served=data["served"],
            interrupted=data["interrupted"],
            average_response_time=data["average_response_time"],
            response_times=tuple(data["response_times"]),
        )


@dataclass(frozen=True)
class SetMetrics:
    """Averages over the runs of one generated set (a Tables 2-5 column)."""

    aart: float
    air: float
    asr: float
    runs: tuple[RunMetrics, ...]

    def as_row(self) -> dict[str, float]:
        """The three table cells, keyed like the paper's row labels."""
        return {"AART": self.aart, "AIR": self.air, "ASR": self.asr}

    # -- dispersion (not in the paper's tables, but a downstream user's
    #    first question about ten-system averages) --------------------------

    def _std(self, values: list[float], mean: float) -> float:
        n = len(values)
        if n < 2:
            return 0.0
        return (sum((v - mean) ** 2 for v in values) / (n - 1)) ** 0.5

    @property
    def aart_std(self) -> float:
        """Sample standard deviation of the per-run average response times."""
        return self._std(
            [r.average_response_time for r in self.runs], self.aart
        )

    @property
    def asr_std(self) -> float:
        """Sample standard deviation of the per-run served ratios."""
        return self._std([r.served_ratio for r in self.runs], self.asr)

    @property
    def air_std(self) -> float:
        """Sample standard deviation of the per-run interrupted ratios."""
        return self._std([r.interrupted_ratio for r in self.runs], self.air)

    def aart_confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the (normal-approximation) confidence interval
        on the AART, at ``z`` standard errors (default ~95%)."""
        n = len(self.runs)
        if n < 2:
            return 0.0
        return z * self.aart_std / n ** 0.5


def measure_run(jobs: list[AperiodicJob]) -> RunMetrics:
    """Compute one run's metrics from its aperiodic job records.

    ``jobs`` must be every aperiodic job released during the run, in any
    order.  Interrupted jobs are those flagged by the execution arm's
    ``Timed`` budget enforcement; they count as released but not served.
    """
    completed = JobState.COMPLETED
    interrupted = 0
    rts = []
    for job in jobs:
        if job.interrupted:
            interrupted += 1
        if job.state is completed:
            finish = job.finish_time
            assert finish is not None, (
                f"completed job {job.name} lacks finish time"
            )
            # Job.response_time, read without the property call
            rts.append(finish - job.release)
    avg = sum(rts) / len(rts) if rts else 0.0
    return RunMetrics(
        released=len(jobs),
        served=len(rts),
        interrupted=interrupted,
        average_response_time=avg,
        response_times=tuple(rts),
    )


def aggregate(runs: list[RunMetrics]) -> SetMetrics:
    """Average per-run measures into AART / AIR / ASR.

    Runs that served no event contribute 0 to the AART average, matching
    the straightforward "average of the average-response-times" the paper
    describes (a served-weighted mean is deliberately not used).
    """
    if not runs:
        raise ValueError("cannot aggregate an empty list of runs")
    n = len(runs)
    return SetMetrics(
        aart=sum(r.average_response_time for r in runs) / n,
        air=sum(r.interrupted_ratio for r in runs) / n,
        asr=sum(r.served_ratio for r in runs) / n,
        runs=tuple(runs),
    )

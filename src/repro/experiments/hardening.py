"""The resilience policy of a campaign sweep and the failures it raises.

:class:`RunPolicy` carries a sweep's timeout, retries, checkpoint and
fail-fast switch; :class:`RunTimeout`, :class:`CheckpointMismatch` and
:class:`RunExhausted` are what a guarded sweep raises.  They live apart
from :mod:`~repro.experiments.campaign` so that every runner target can
build the policy and map the failures to its exit status without
importing the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .campaign import RunRecord

__all__ = ["CheckpointMismatch", "RunExhausted", "RunPolicy", "RunTimeout"]


class RunTimeout(Exception):
    """A single campaign run exceeded its wall-clock allowance."""


class CheckpointMismatch(ValueError):
    """A campaign checkpoint holds runs that another campaign wrote."""


class RunExhausted(Exception):
    """Fail-fast: a run used up its retry budget without succeeding.

    Raised (instead of a failure record being folded into the results)
    when the active :class:`RunPolicy` has ``fail_fast=True``.  Carries
    the final :class:`RunRecord` as a dict in ``args[0]`` so it survives
    pickling across the worker-pool boundary.
    """

    @property
    def record(self) -> RunRecord:
        from .campaign import RunRecord

        return RunRecord.from_dict(self.args[0])

    def __str__(self) -> str:
        data = self.args[0]
        return (
            f"run {data['arm']} set={tuple(data['set_key'])} "
            f"system={data['system_id']} gave up after "
            f"{data['attempts']} attempt(s): {data['status']}"
        )


@dataclass(frozen=True)
class RunPolicy:
    """Resilience policy for campaign runs.

    * ``timeout_s`` — wall-clock limit per run (``None`` = unlimited;
      enforced with ``SIGALRM``, so it is a no-op off the main thread or
      on platforms without POSIX signals);
    * ``max_retries`` — how many times a crashed/hung run is retried,
      each retry regenerating the system from a bumped master seed so a
      pathological random stream cannot wedge the sweep.  In all four
      campaigns retry ``attempt`` regenerates from ``seed +
      DEFAULT_BACKOFF.seed_bump(seed, attempt, scale=retry_seed_bump)``:
      the shared :class:`~repro.service.backoff.BackoffPolicy` bump,
      exponentially widening, jittered and deterministic under the
      master seed (see :func:`~repro.experiments.campaign.guarded`);
    * ``checkpoint_path`` — JSONL file of per-run records; an existing
      file is loaded on start and completed runs are skipped, so an
      interrupted campaign resumes instead of restarting;
    * ``fail_fast`` — raise :class:`RunExhausted` the moment any run
      exhausts its retry budget, instead of folding a failure record
      into the results (the CLI maps this to a non-zero exit).
    """

    timeout_s: float | None = None
    max_retries: int = 0
    retry_seed_bump: int = 1
    checkpoint_path: Path | None = None
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_seed_bump <= 0:
            raise ValueError(
                f"retry_seed_bump must be > 0, got {self.retry_seed_bump}"
            )

"""Exponential backoff with jitter, deterministic under a seed.

One policy object serves every retry loop in the repo:

* the admission-service *client* waits ``delay(attempt, rng)`` logical
  time units between retries of a retryable rejection (breaker open,
  queue full), so synchronized clients de-correlate instead of
  re-storming the service in lockstep;
* the campaign's hardened retry path derives its regeneration seed from
  ``seed_bump(seed, attempt)`` — exponentially widening, jittered seed
  offsets replace the old bare ``seed + attempt * bump`` arithmetic, so
  consecutive retries explore genuinely different random streams while
  staying bit-reproducible from the master seed.

Everything is driven by :class:`~repro.workload.rng.PortableRandom`, so
two processes with the same seed compute the same schedule on any
platform — a retry storm can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload.rng import PortableRandom

__all__ = ["BackoffPolicy", "DEFAULT_BACKOFF"]

_JITTER_MODES = ("full", "equal", "none")

#: splitmix-style odd multiplier for per-(seed, attempt) stream keys
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff: ``base * factor**(attempt-1)``, capped and
    jittered.

    ``jitter`` selects the AWS-style variants: ``"full"`` draws uniformly
    from ``[0, raw]``, ``"equal"`` from ``[raw/2, raw]``, ``"none"``
    returns ``raw`` unchanged.  ``attempt`` is 1-based.
    """

    base: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: str = "full"

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < self.base:
            raise ValueError(
                f"max_delay must be >= base, got {self.max_delay}"
            )
        if self.jitter not in _JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {_JITTER_MODES}, got {self.jitter!r}"
            )

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered exponential delay for 1-based ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.base * self.factor ** (attempt - 1), self.max_delay)

    def delay(self, attempt: int, rng: PortableRandom) -> float:
        """One jittered delay, consuming ``rng``."""
        raw = self.raw_delay(attempt)
        if self.jitter == "none":
            return raw
        if self.jitter == "equal":
            return raw / 2.0 + rng.uniform(0.0, raw / 2.0)
        return rng.uniform(0.0, raw)

    def schedule(self, seed: int, attempts: int) -> tuple[float, ...]:
        """The full delay sequence a client with ``seed`` would wait.

        Deterministic: same (policy, seed, attempts) — same tuple,
        every platform.
        """
        rng = PortableRandom(seed)
        return tuple(
            self.delay(attempt, rng) for attempt in range(1, attempts + 1)
        )

    def seed_bump(self, seed: int, attempt: int, scale: int = 1) -> int:
        """A deterministic, jittered seed offset for retry ``attempt``.

        Bumps grow exponentially and are drawn from disjoint ranges
        (``scale * [factor**(a-1), factor**a)`` for integer factors), so
        no two attempts of one run ever regenerate from the same seed and
        the whole sequence is reproducible from ``(seed, attempt)`` alone
        — no RNG state threads through the retry loop.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        growth = int(round(self.factor ** (attempt - 1)))
        growth = max(growth, 1)
        if self.jitter == "none":
            return scale * growth
        span = max(int(round(self.factor ** attempt)) - growth, 1)
        rng = PortableRandom(((seed * _MIX) ^ attempt) & _MASK)
        return scale * (growth + rng.randint(0, span - 1))


#: the repo-wide default: full jitter, half-second base, 30 s cap
DEFAULT_BACKOFF = BackoffPolicy()

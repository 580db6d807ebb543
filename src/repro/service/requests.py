"""Client-facing request and decision types of the admission service.

A client submits :class:`EventRequest` objects — one per logical
aperiodic event — and gets an :class:`AdmissionTicket` back.  Tickets
are *idempotent*: the ``request_id`` is the deduplication key, so a
client that times out and retries can resubmit the same id without ever
double-admitting (it gets the original ticket back, flagged
``duplicate``).

Decisions split into retryable and terminal: a breaker rejection or a
full queue is a transient condition worth backing off and retrying
(:data:`RETRYABLE`); a deadline that cannot be met is final.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Decision",
    "RETRYABLE",
    "EventRequest",
    "AdmissionTicket",
    "IdempotencyCache",
    "IDEMPOTENCY_ENTRIES",
]


class Decision(enum.Enum):
    """Outcome of one submission attempt."""

    ADMIT = "admit"
    #: the predicted response time misses the deadline — final
    REJECT_DEADLINE = "reject_deadline"
    #: the bounded pending queue is full — transient, retryable
    REJECT_OVERLOAD = "reject_overload"
    #: the source's circuit breaker is open — transient, retryable
    REJECT_BREAKER = "reject_breaker"
    #: degraded mode sheds optional requests — transient, retryable
    REJECT_DEGRADED = "reject_degraded"
    #: the service is draining towards shutdown — final here
    REJECT_DRAINING = "reject_draining"
    #: no live shard can take the request right now — transient, retryable
    REJECT_UNREACHABLE = "reject_unreachable"
    #: the gateway's bounded in-flight pipeline is full — transient,
    #: retryable backpressure, never an unbounded queue
    REJECT_BUSY = "reject_busy"


#: decisions a well-behaved client retries with exponential backoff
RETRYABLE = frozenset({
    Decision.REJECT_OVERLOAD,
    Decision.REJECT_BREAKER,
    Decision.REJECT_DEGRADED,
    Decision.REJECT_UNREACHABLE,
    Decision.REJECT_BUSY,
})

#: settled request ids an :class:`IdempotencyCache` remembers by
#: default, as the service's and the gateway's do
IDEMPOTENCY_ENTRIES = 4096


@dataclass(frozen=True)
class EventRequest:
    """One aperiodic event asking to be served.

    ``cost`` is the declared execution demand (tu) — what admission
    control reasons about; ``relative_deadline`` the requested response
    bound from submission; ``hard`` marks events whose deadline must
    never be silently missed (they are cut and explicitly SHED at the
    deadline instead); ``optional`` marks events degraded mode may shed
    outright.  ``source`` names the client stream for per-source circuit
    breaking.
    """

    request_id: str
    cost: float
    relative_deadline: float
    hard: bool = True
    optional: bool = False
    source: str = "client"

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("request_id must be non-empty")
        if self.cost <= 0:
            raise ValueError(f"cost must be > 0, got {self.cost}")
        if self.relative_deadline <= 0:
            raise ValueError(
                f"relative_deadline must be > 0, got {self.relative_deadline}"
            )

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "cost": self.cost,
            "relative_deadline": self.relative_deadline,
            "hard": self.hard,
            "optional": self.optional,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventRequest":
        return cls(**data)


@dataclass(frozen=True)
class AdmissionTicket:
    """What a submission attempt returned.

    For admitted requests ``predicted_finish`` is the twin's promised
    absolute completion instant and ``deadline`` the absolute deadline
    the service will enforce.  ``duplicate`` marks an idempotent replay
    of an earlier decision; ``attempt`` the 1-based submission attempt
    that produced the original decision.
    """

    request_id: str
    decision: Decision
    submitted_at: float
    predicted_finish: float = 0.0
    deadline: float = 0.0
    detail: str = ""
    duplicate: bool = False
    attempt: int = 1

    @property
    def admitted(self) -> bool:
        return self.decision is Decision.ADMIT

    @property
    def retryable(self) -> bool:
        return self.decision in RETRYABLE

    @property
    def margin(self) -> float:
        """Predicted slack to the deadline (admitted tickets only)."""
        return self.deadline - self.predicted_finish

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "decision": self.decision.value,
            "submitted_at": self.submitted_at,
            "predicted_finish": self.predicted_finish,
            "deadline": self.deadline,
            "detail": self.detail,
            "duplicate": self.duplicate,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdmissionTicket":
        data = dict(data)
        data["decision"] = Decision(data["decision"])
        return cls(**data)


@dataclass
class IdempotencyCache:
    """Request-id deduplication with a bounded memory footprint.

    Remembers the ticket of every *settled* request id — admitted,
    terminally rejected, completed or shed.  Retryable rejections are
    deliberately **not** cached: the whole point of a retry is a fresh
    admission test.  The cache keeps at most ``max_entries`` ids,
    evicting the oldest settled ids first (FIFO), which bounds a
    long-running service's memory without losing the recent window
    retries actually target.
    """

    max_entries: int = IDEMPOTENCY_ENTRIES
    _tickets: dict[str, AdmissionTicket] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )

    def get(self, request_id: str) -> AdmissionTicket | None:
        return self._tickets.get(request_id)

    def put(self, ticket: AdmissionTicket) -> None:
        if ticket.retryable:
            return
        if (
            ticket.request_id not in self._tickets
            and len(self._tickets) >= self.max_entries
        ):
            self._tickets.pop(next(iter(self._tickets)))
        self._tickets[ticket.request_id] = ticket

    def __len__(self) -> int:
        return len(self._tickets)

    def __contains__(self, request_id: str) -> bool:
        return request_id in self._tickets

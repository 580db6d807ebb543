"""The shard router: consistent mapping, breakers, idempotent retries.

:class:`ShardRouter` is the fabric's client-facing edge.  Per submitted
request it

1. answers **idempotently** from the fabric-level
   :class:`~repro.service.requests.IdempotencyCache` first — the router
   outlives shard crashes, so a request settled on a shard that has
   since died (and whose own cache died with it) is never re-admitted
   through a sibling after failover;
2. routes by the **consistent** source → shard placement, overridden by
   the supervisor's failover table while a shard is down;
3. gates each shard behind its own :class:`~repro.overload.breaker.
   CircuitBreaker` fed by *unreachability* (a dead shard's connection
   refusals), so a flapping shard is steered around without hammering;
4. returns retryable :data:`~repro.service.requests.Decision.
   REJECT_UNREACHABLE` tickets for dead/breaker-open/browned-out
   targets, which a :class:`~repro.service.service.ServiceClient`
   retries with the shared exponential backoff — by then the
   supervisor has usually failed the source over or restored the
   shard.

On a healthy single-shard fabric every step is side-effect-free beyond
the shard's own ``submit``, which keeps the fabric byte-identical to a
bare :class:`~repro.service.service.AdmissionService`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..overload.breaker import CircuitBreaker
from ..service.requests import (
    AdmissionTicket,
    Decision,
    EventRequest,
    IdempotencyCache,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fabric import AdmissionFabric

__all__ = ["ShardRouter"]

#: tickets the fabric-level idempotency cache remembers
_IDEMPOTENCY_ENTRIES = 65536


class ShardRouter:
    """Routes one request to one shard — or refuses it, retryably."""

    def __init__(self, fabric: "AdmissionFabric") -> None:
        self.fabric = fabric
        #: the fabric's clock, which a retrying client schedules on
        self.clock = fabric.clock
        self.cache = IdempotencyCache(max_entries=_IDEMPOTENCY_ENTRIES)
        self._breakers: dict[int, CircuitBreaker] = {}
        if fabric.config.breaker is not None:
            self._breakers = {
                shard.index: CircuitBreaker(
                    fabric.config.breaker,
                    name=f"shard-{shard.index}",
                    trace=fabric.trace,
                )
                for shard in fabric.shards
            }
        #: source -> takeover shard while its home is down; ``None``
        #: means browned out (no sibling had spare bucket capacity)
        self._overrides: dict[str, int | None] = {}
        self.routed = 0
        self.deduplicated = 0
        self.unreachable = 0
        self.failover_routed = 0
        self.browned_out = 0

    # -- routing state (supervisor-driven) ---------------------------------

    def set_override(self, source: str, shard: int | None) -> None:
        """Fail ``source`` over to ``shard`` (``None`` = brown-out)."""
        self._overrides[source] = shard

    def clear_overrides_for(self, home_shard: int) -> list[str]:
        """Drop every override for sources homed on ``home_shard``."""
        placement = self.fabric.placement
        cleared = [
            source for source in self._overrides
            if placement.shard_for(source) == home_shard
        ]
        for source in cleared:
            del self._overrides[source]
        return cleared

    def shard_for(self, source: str) -> int | None:
        """Current target shard for ``source`` (``None`` = browned out)."""
        if source in self._overrides:
            return self._overrides[source]
        return self.fabric.placement.shard_for(source)

    def breaker_for(self, shard: int) -> CircuitBreaker | None:
        return self._breakers.get(shard)

    # -- the client-facing edge --------------------------------------------

    def submit(
        self, request: EventRequest, *, at: float | None = None
    ) -> AdmissionTicket:
        """One routing + admission attempt, idempotent by request id.

        ``at`` anchors the decision on a caller-chosen stamp, exactly as
        in :meth:`AdmissionService.submit` — the gateway's wall-clock
        front end stamps frames once and routes with that stamp.
        """
        now = at if at is not None else self.clock.now()
        self.routed += 1
        cached = self.cache.get(request.request_id)
        if cached is not None:
            self.deduplicated += 1
            return replace(cached, duplicate=True)
        target = self.shard_for(request.source)
        if target is None:
            # browned out through the degraded-mode stack: optionals
            # are degraded-shed, the rest wait out the blackout
            self.browned_out += 1
            decision = (
                Decision.REJECT_DEGRADED if request.optional
                else Decision.REJECT_UNREACHABLE
            )
            return AdmissionTicket(
                request.request_id, decision, now,
                detail=f"source {request.source} browned out "
                       "(home shard down, no spare capacity)",
            )
        shard = self.fabric.shards[target]
        breaker = self._breakers.get(target)
        if not shard.alive:
            # connection refused — evidence the breaker counts
            if breaker is not None:
                breaker.record_failure(now)
            self.unreachable += 1
            return AdmissionTicket(
                request.request_id, Decision.REJECT_UNREACHABLE, now,
                detail=f"shard-{target} unreachable (dead)",
            )
        if breaker is not None and not breaker.allow(now):
            self.unreachable += 1
            return AdmissionTicket(
                request.request_id, Decision.REJECT_UNREACHABLE, now,
                detail=f"shard-{target} breaker open",
            )
        if source_failed_over := (request.source in self._overrides):
            self.failover_routed += 1
        ticket = shard.service.submit(request, at=now)
        if breaker is not None:
            # the shard answered — that is success for *reachability*
            # (an overload rejection is the shard doing its job)
            breaker.record_success(now)
        self.cache.put(ticket)
        if source_failed_over and ticket.admitted:
            self.fabric.note_failover_admit(request.request_id, target)
        return ticket

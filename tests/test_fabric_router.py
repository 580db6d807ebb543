"""Shard router (PR 8): idempotency, overrides, breakers, retries."""

from __future__ import annotations

import pytest

from repro.fabric import AdmissionFabric, FabricConfig
from repro.service import Decision, EventRequest, ServiceClient, ServiceConfig

CONFIG = ServiceConfig(capacity=2.0, period=2.0, detector=None)


def _fabric(shards: int = 2, sources: int = 4,
            **kw) -> AdmissionFabric:
    fabric_config = FabricConfig(
        shards=shards,
        sources=tuple(f"src-{i}" for i in range(sources)),
        supervised=False, **kw,
    )
    return AdmissionFabric(fabric_config, CONFIG)


def _req(rid: str, source: str = "src-0", cost: float = 0.5,
         deadline: float = 40.0, **kw) -> EventRequest:
    return EventRequest(request_id=rid, cost=cost,
                        relative_deadline=deadline, source=source, **kw)


class TestRouting:
    def test_requests_route_by_source_placement(self):
        fabric = _fabric().start()
        for i in range(4):
            source = f"src-{i}"
            ticket = fabric.router.submit(
                _req(f"r{i}", source=source)
            )
            assert ticket.admitted
            home = fabric.placement.shard_for(source)
            assert f"r{i}" in fabric.shards[home].service.planner.jobs
        fabric.drain()

    def test_duplicate_submission_replays_cached_ticket(self):
        fabric = _fabric().start()
        first = fabric.router.submit(_req("dup"))
        again = fabric.router.submit(_req("dup"))
        assert first.admitted
        assert again.duplicate and again.decision is first.decision
        assert fabric.router.deduplicated == 1
        # the shard saw the request exactly once
        home = fabric.placement.shard_for("src-0")
        assert fabric.shards[home].service.submitted == 1
        fabric.drain()

    def test_dead_shard_is_unreachable_and_retryable(self):
        fabric = _fabric().start()
        home = fabric.placement.shard_for("src-0")
        fabric.kill_shard(home)
        ticket = fabric.router.submit(_req("r0"))
        assert ticket.decision is Decision.REJECT_UNREACHABLE
        assert ticket.retryable
        assert fabric.router.unreachable == 1
        fabric.drain()

    def test_override_reroutes_source_to_sibling(self):
        fabric = _fabric().start()
        home = fabric.placement.shard_for("src-0")
        sibling = (home + 1) % 2
        fabric.kill_shard(home)
        fabric.router.set_override("src-0", sibling)
        ticket = fabric.router.submit(_req("r0"))
        assert ticket.admitted
        assert "r0" in fabric.shards[sibling].service.planner.jobs
        assert fabric.router.failover_routed == 1
        assert fabric.failover_admits == [("r0", sibling)]
        fabric.drain()

    def test_brown_out_sheds_optional_and_defers_the_rest(self):
        fabric = _fabric().start()
        fabric.router.set_override("src-0", None)
        optional = fabric.router.submit(
            _req("opt", optional=True)
        )
        required = fabric.router.submit(_req("must"))
        assert optional.decision is Decision.REJECT_DEGRADED
        assert required.decision is Decision.REJECT_UNREACHABLE
        assert optional.retryable and required.retryable
        assert fabric.router.browned_out == 2
        fabric.drain()

    def test_clear_overrides_rehomes_only_that_shard(self):
        fabric = _fabric(shards=3, sources=6).start()
        on_zero = fabric.sources_homed_on(0)
        on_one = fabric.sources_homed_on(1)
        assert on_zero and on_one
        for source in on_zero:
            fabric.router.set_override(source, 1)
        for source in on_one:
            fabric.router.set_override(source, 2)
        cleared = fabric.router.clear_overrides_for(0)
        assert sorted(cleared) == sorted(on_zero)
        for source in on_zero:
            assert fabric.router.shard_for(source) == 0
        for source in on_one:
            assert fabric.router.shard_for(source) == 2
        fabric.drain()

    def test_hammering_a_dead_shard_opens_its_breaker(self):
        fabric = _fabric().start()
        home = fabric.placement.shard_for("src-0")
        fabric.kill_shard(home)
        breaker = fabric.router.breaker_for(home)
        assert breaker is not None
        for i in range(breaker.config.failure_threshold + 2):
            fabric.router.submit(_req(f"r{i}"))
        assert breaker.is_open
        # an open breaker refuses before touching the shard
        ticket = fabric.router.submit(_req("after"))
        assert ticket.decision is Decision.REJECT_UNREACHABLE
        assert "breaker open" in ticket.detail or "dead" in ticket.detail
        fabric.drain()


class _Recording:
    """A router that remembers the ticket of every attempt."""

    def __init__(self, router) -> None:
        self.router = router
        self.clock = router.clock
        self.tickets = []

    def submit(self, request: EventRequest):
        ticket = self.router.submit(request)
        self.tickets.append(ticket)
        return ticket


class TestFabricClient:
    """The retrying :class:`ServiceClient` in front of a router."""

    def test_client_retries_through_a_restored_override(self):
        fabric = _fabric().start()
        home = fabric.placement.shard_for("src-0")
        sibling = (home + 1) % 2
        fabric.kill_shard(home)
        target = _Recording(fabric.router)
        client = ServiceClient(target, seed=3)
        fabric.clock.call_at(0.1, fabric.router.set_override, "src-0",
                             sibling)
        first = client.submit(_req("r0"))
        assert first is target.tickets[0]   # the target's own ticket
        assert first.decision is Decision.REJECT_UNREACHABLE
        assert first.attempt == 1
        fabric.clock.advance(30.0)
        assert target.tickets[-1].admitted
        assert len(target.tickets) > 1
        assert client.retries == len(target.tickets) - 1
        fabric.drain()

    def test_client_gives_up_after_max_attempts(self):
        fabric = _fabric().start()
        fabric.kill_shard(fabric.placement.shard_for("src-0"))
        target = _Recording(fabric.router)
        client = ServiceClient(target, seed=3, max_attempts=2)
        client.submit(_req("r0"))
        fabric.clock.advance(60.0)
        assert [ticket.decision for ticket in target.tickets] == [
            Decision.REJECT_UNREACHABLE, Decision.REJECT_UNREACHABLE,
        ]
        assert client.retries == 1
        fabric.drain()

    def test_invalid_max_attempts_rejected(self):
        fabric = _fabric()
        with pytest.raises(ValueError):
            ServiceClient(fabric.router, max_attempts=0)

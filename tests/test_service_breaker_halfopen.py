"""Breaker half-open semantics under simultaneous submissions.

The PR 3 breaker documents that at most ``half_open_probes`` probes are
in flight after a cooldown and that rejected submissions are *not*
failures.  This pins the contract at the service edge: many submissions
at one instant race for the probe slot, exactly one wins, the losers get
``REJECT_BREAKER`` tickets that neither re-open the breaker nor count
toward its failure window.
"""

from __future__ import annotations

from repro.overload.breaker import BreakerState
from repro.overload.config import BreakerConfig
from repro.service import (
    AdmissionService,
    Decision,
    EventRequest,
    ServiceConfig,
    VirtualClock,
)

CONFIG = ServiceConfig(
    capacity=2.0, period=2.0,
    queue_bound=1,
    breaker=BreakerConfig(failure_threshold=2, window=50.0,
                          cooldown=10.0, half_open_probes=1),
    detector=None,
)


def _req(rid: str, cost: float = 1.0, deadline: float = 30.0,
         source: str = "src") -> EventRequest:
    return EventRequest(request_id=rid, cost=cost,
                        relative_deadline=deadline, source=source)


def _trip_breaker(service: AdmissionService) -> None:
    """Open src's breaker behaviourally: overflow the bounded queue."""
    blocker = service.submit(_req("blocker", cost=1.5, deadline=60.0))
    assert blocker.admitted
    for i in range(2):   # two overload sheds = failure_threshold
        ticket = service.submit(_req(f"over-{i}"))
        assert ticket.decision is Decision.REJECT_OVERLOAD
    breaker = service._breakers["src"]
    assert breaker.state is BreakerState.OPEN


class TestHalfOpenRace:
    def test_exactly_one_probe_wins(self):
        clock = VirtualClock()
        service = AdmissionService(CONFIG, clock=clock)
        service.start()
        _trip_breaker(service)
        breaker = service._breakers["src"]
        opens_before = breaker.open_count
        failures_before = len(breaker._failures)

        # cooldown passes and the blocker completes (queue empties)
        clock.advance(15.0)
        assert service.planner.backlog == 0

        # ten submissions at one instant race for the probe slot
        tickets = [service.submit(_req(f"race-{i}")) for i in range(10)]
        admitted = [t for t in tickets if t.admitted]
        rejected = [
            t for t in tickets
            if t.decision is Decision.REJECT_BREAKER
        ]
        assert len(admitted) == 1
        assert len(rejected) == 9
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker._probes_in_flight == 1

        # the losers were rejections, not failures: the breaker did
        # not re-open and its failure window did not grow
        assert breaker.open_count == opens_before
        assert len(breaker._failures) == failures_before

        # the probe completing closes the breaker again
        clock.advance(40.0)
        assert breaker.state is BreakerState.CLOSED
        service.drain()
        report = service.finish()
        assert report is not None and not report.violations

    def test_rejected_losers_can_retry_after_probe(self):
        clock = VirtualClock()
        service = AdmissionService(CONFIG, clock=clock)
        service.start()
        _trip_breaker(service)
        clock.advance(15.0)

        tickets = [service.submit(_req(f"race-{i}")) for i in range(3)]
        loser = next(
            t for t in tickets
            if t.decision is Decision.REJECT_BREAKER
        )
        assert loser.retryable
        # retryable rejections are not cached: the id stays free
        assert loser.request_id not in service.cache

        # once the probe succeeds, the loser's retry is admitted
        clock.advance(40.0)
        retry = service.submit(_req(loser.request_id))
        assert retry.admitted and not retry.duplicate
        service.drain()

    def test_probe_failure_reopens(self):
        clock = VirtualClock()
        service = AdmissionService(CONFIG, clock=clock)
        service.start()
        _trip_breaker(service)
        breaker = service._breakers["src"]
        opens_before = breaker.open_count

        # keep the queue full through the cooldown: the probe that
        # wins the slot immediately sheds (a real failure)
        clock.advance(12.0)
        blocker2 = service.submit(
            _req("blocker2", cost=1.5, deadline=60.0)
        )
        assert blocker2.admitted   # this one consumed the probe slot
        probe = service.submit(_req("probe"))
        assert probe.decision in (
            Decision.REJECT_OVERLOAD, Decision.REJECT_BREAKER
        )
        if probe.decision is Decision.REJECT_OVERLOAD:
            # the queue-full shed counted as a probe failure
            assert breaker.state is BreakerState.OPEN
            assert breaker.open_count == opens_before + 1
        service.drain()

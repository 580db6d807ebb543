"""Unit + adversarial tests for the server supply-bound model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.resource_model import (
    ServerSupply,
    deferrable_supply,
    polling_supply,
)
from repro.core import ideal_ps_finish_time
from repro.sim import (
    AperiodicJob,
    FixedPriorityPolicy,
    IdealDeferrableServer,
    IdealPollingServer,
    Simulation,
)
from repro.workload.spec import ServerSpec


class TestSbfShape:
    def test_zero_before_blackout(self):
        s = polling_supply(4.0, 6.0)
        assert s.sbf(0) == 0
        assert s.sbf(6.0) == 0
        assert s.sbf(6.5) == pytest.approx(0.5)

    def test_staircase_values(self):
        s = polling_supply(4.0, 6.0)
        assert s.sbf(10.0) == pytest.approx(4.0)   # one full budget
        assert s.sbf(12.0) == pytest.approx(4.0)   # flat until next period
        assert s.sbf(13.0) == pytest.approx(5.0)

    def test_deferrable_shorter_blackout(self):
        ds = deferrable_supply(4.0, 6.0)
        ps = polling_supply(4.0, 6.0)
        for t in (1.0, 3.0, 5.0, 8.0, 14.5, 30.0):
            assert ds.sbf(t) >= ps.sbf(t)

    def test_monotone_and_rate_bounded(self):
        s = deferrable_supply(3.0, 7.0)
        prev = 0.0
        for i in range(200):
            t = i * 0.25
            v = s.sbf(t)
            assert v >= prev - 1e-12
            assert v <= max(0.0, t) + 1e-12  # never supplies faster than time
            prev = v

    def test_inverse_is_inverse(self):
        s = polling_supply(4.0, 6.0)
        for w in (0.5, 3.9, 4.0, 4.1, 9.7, 12.0):
            t = s.inverse_sbf(w)
            assert s.sbf(t) == pytest.approx(w)
            assert s.sbf(t - 1e-6) < w

    def test_inverse_of_a_denormal_workload_covers_the_blackout(self):
        s = ServerSupply(capacity=4.0, period=6.0, blackout=4.0)
        # the first two underflow workload / capacity to 0
        for w in (5e-324, 1e-323, 1e-310):
            assert s.inverse_sbf(w) == s.blackout

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerSupply(capacity=0, period=6, blackout=0)
        with pytest.raises(ValueError):
            ServerSupply(capacity=7, period=6, blackout=0)
        with pytest.raises(ValueError):
            ServerSupply(capacity=3, period=6, blackout=-1)
        with pytest.raises(ValueError):
            polling_supply(4, 6).inverse_sbf(-1)


class TestDelayBounds:
    def test_burst_delay_matches_equation(self):
        # a burst W arriving at the PS's worst instant finishes exactly
        # at the bound predicted by equations (1)-(4) evaluated just
        # after an empty activation (cs = 0 at t -> 0+)
        s = polling_supply(4.0, 6.0)
        for w in (1.0, 4.0, 5.5, 9.0):
            eq_finish = ideal_ps_finish_time(
                t=1e-9, workload=w, cs_t=0.0, capacity=4.0, period=6.0
            )
            assert s.delay_bound(w) == pytest.approx(eq_finish, abs=1e-6)

    def test_arrival_curve_degenerates_to_burst(self):
        s = deferrable_supply(4.0, 6.0)
        assert s.arrival_curve_delay(3.0, 0.0) == pytest.approx(
            s.delay_bound(3.0)
        )

    def test_arrival_curve_rate_check(self):
        s = polling_supply(4.0, 6.0)
        with pytest.raises(ValueError, match="unbounded"):
            s.arrival_curve_delay(1.0, rate=0.7)

    def test_arrival_curve_delay_grows_with_rate(self):
        s = polling_supply(4.0, 6.0)
        delays = [
            s.arrival_curve_delay(2.0, r) for r in (0.0, 0.2, 0.4, 0.6)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(delays, delays[1:]))


def adversarial_run(server_cls, spec, arrivals, horizon=240.0):
    sim = Simulation(FixedPriorityPolicy())
    server = server_cls(spec, name="S")
    server.attach(sim, horizon=horizon)
    jobs = []
    for i, (t, c) in enumerate(arrivals):
        job = AperiodicJob(f"j{i}", release=t, cost=c)
        jobs.append(job)
        sim.submit_aperiodic(job, server.submit)
    sim.run(until=horizon)
    return jobs


class TestBoundsAgainstSimulator:
    SPEC = ServerSpec(capacity=4.0, period=6.0, priority=10)

    @settings(max_examples=30, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            ),
            min_size=1, max_size=8,
        )
    )
    def test_polling_never_beats_sbf_nor_misses_burst_bound(self, arrivals):
        jobs = adversarial_run(
            IdealPollingServer, self.SPEC, sorted(arrivals)
        )
        supply = polling_supply(4.0, 6.0)
        # each completed job finishes within the bound for the total
        # workload ahead of it (FIFO service, worst-phase bound)
        done = 0.0
        for job in sorted(jobs, key=lambda j: j.release):
            done += job.cost
            if job.finish_time is not None:
                assert (
                    job.finish_time - job.release
                    <= supply.delay_bound(done) + 1e-6
                )

    @settings(max_examples=30, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
                st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
            ),
            min_size=1, max_size=8,
        )
    )
    def test_deferrable_respects_its_bound(self, arrivals):
        jobs = adversarial_run(
            IdealDeferrableServer, self.SPEC, sorted(arrivals)
        )
        supply = deferrable_supply(4.0, 6.0)
        done = 0.0
        for job in sorted(jobs, key=lambda j: j.release):
            done += job.cost
            if job.finish_time is not None:
                assert (
                    job.finish_time - job.release
                    <= supply.delay_bound(done) + 1e-6
                )

    def test_polling_worst_case_is_tight(self):
        # arrival just after the t=0 activation discarded its budget:
        # the bound is achieved exactly
        jobs = adversarial_run(
            IdealPollingServer, self.SPEC, [(0.001, 4.0)]
        )
        supply = polling_supply(4.0, 6.0)
        measured = jobs[0].finish_time - jobs[0].release
        assert measured == pytest.approx(supply.delay_bound(4.0), abs=1e-2)

"""The shared exponential-backoff-with-jitter helper (PR 6 satellite).

Covers the delay arithmetic, the jitter modes, determinism under a
seed, and the campaign retry path that now derives its regeneration
seeds from the same policy.
"""

from __future__ import annotations

import pytest

from repro.service.backoff import BackoffPolicy, DEFAULT_BACKOFF
from repro.workload.rng import PortableRandom


class TestRawDelay:
    def test_exponential_growth(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=100.0,
                               jitter="none")
        assert [policy.raw_delay(a) for a in range(1, 5)] == [
            1.0, 2.0, 4.0, 8.0
        ]

    def test_cap(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=5.0)
        assert policy.raw_delay(10) == 5.0

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            DEFAULT_BACKOFF.raw_delay(0)

    @pytest.mark.parametrize("bad", [
        dict(base=0.0), dict(factor=0.5), dict(max_delay=0.1),
        dict(jitter="gaussian"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            BackoffPolicy(**bad)


class TestJitter:
    def test_full_jitter_bounds(self):
        policy = BackoffPolicy(base=2.0, factor=2.0, jitter="full")
        rng = PortableRandom(3)
        for attempt in range(1, 6):
            raw = policy.raw_delay(attempt)
            for _ in range(50):
                assert 0.0 <= policy.delay(attempt, rng) <= raw

    def test_equal_jitter_bounds(self):
        policy = BackoffPolicy(base=2.0, factor=2.0, jitter="equal")
        rng = PortableRandom(3)
        for attempt in range(1, 6):
            raw = policy.raw_delay(attempt)
            for _ in range(50):
                assert raw / 2.0 <= policy.delay(attempt, rng) <= raw

    def test_none_jitter_is_exact(self):
        policy = BackoffPolicy(base=0.5, factor=3.0, jitter="none")
        rng = PortableRandom(3)
        assert policy.delay(2, rng) == 1.5

    def test_schedule_deterministic(self):
        assert DEFAULT_BACKOFF.schedule(42, 6) == \
            DEFAULT_BACKOFF.schedule(42, 6)
        assert DEFAULT_BACKOFF.schedule(42, 6) != \
            DEFAULT_BACKOFF.schedule(43, 6)


class TestSeedBump:
    def test_deterministic(self):
        bumps = [DEFAULT_BACKOFF.seed_bump(7, a) for a in range(1, 8)]
        again = [DEFAULT_BACKOFF.seed_bump(7, a) for a in range(1, 8)]
        assert bumps == again

    def test_attempts_never_collide(self):
        bumps = [DEFAULT_BACKOFF.seed_bump(11, a) for a in range(1, 10)]
        assert len(set(bumps)) == len(bumps)

    def test_disjoint_exponential_ranges(self):
        policy = BackoffPolicy(factor=2.0)
        for seed in range(20):
            for attempt in range(1, 8):
                bump = policy.seed_bump(seed, attempt)
                assert 2 ** (attempt - 1) <= bump < 2 ** attempt

    def test_scale_multiplies(self):
        base = DEFAULT_BACKOFF.seed_bump(5, 3, scale=1)
        scaled = DEFAULT_BACKOFF.seed_bump(5, 3, scale=10)
        assert scaled == base * 10

    def test_no_jitter_reduces_to_plain_exponential(self):
        policy = BackoffPolicy(factor=2.0, jitter="none")
        assert [policy.seed_bump(0, a) for a in range(1, 5)] == [1, 2, 4, 8]

    def test_validation(self):
        with pytest.raises(ValueError):
            DEFAULT_BACKOFF.seed_bump(0, 0)
        with pytest.raises(ValueError):
            DEFAULT_BACKOFF.seed_bump(0, 1, scale=0)


class TestCampaignIntegration:
    def test_guarded_run_uses_shared_policy(self, monkeypatch):
        """The campaign retry derives its bumped seeds from the shared
        backoff policy (exponentially widening, never colliding)."""
        from repro.experiments import campaign as campaign_mod
        from repro.experiments.campaign import RunPolicy, run_campaign
        from repro.workload.generator import (
            GenerationParameters,
            RandomSystemGenerator,
        )

        params = GenerationParameters(
            task_density=1.0, average_cost=3.0, std_deviation=0.0,
            server_capacity=4.0, server_period=6.0, nb_generation=1,
            seed=100,
        )
        seen_seeds: list[int] = []
        failures = {"left": 2}
        real_run = campaign_mod._run_arm
        real_generator = campaign_mod.RandomSystemGenerator

        def spying_generator(p):
            seen_seeds.append(p.seed)
            return real_generator(p)

        def flaky(arm, system, overhead, enforcement, verify):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("still warming up")
            return real_run(arm, system, overhead, enforcement, verify)

        monkeypatch.setattr(campaign_mod, "_run_arm", flaky)
        monkeypatch.setattr(
            campaign_mod, "RandomSystemGenerator", spying_generator
        )
        result = run_campaign(
            sets=(params,), arms=("ps_sim",),
            run_policy=RunPolicy(max_retries=3),
        )
        assert not result.failures
        # retries 1 and 2 regenerated from backoff-bumped master seeds
        expected = [
            100 + DEFAULT_BACKOFF.seed_bump(100, attempt)
            for attempt in (1, 2)
        ]
        assert seen_seeds[-2:] == expected
        assert len(set(seen_seeds[-2:] + [100])) == 3

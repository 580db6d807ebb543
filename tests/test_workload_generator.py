"""Unit tests for the random system generator (paper Section 6.1)."""

from __future__ import annotations

import pytest

from repro.workload import (
    GenerationParameters,
    PAPER_SETS,
    RandomSystemGenerator,
    generate_campaign_sets,
)
from repro.workload.spec import AperiodicEventSpec, GeneratedSystem, ServerSpec


def params(**overrides) -> GenerationParameters:
    base = dict(
        task_density=1.0, average_cost=3.0, std_deviation=0.0,
        server_capacity=4.0, server_period=6.0, nb_generation=10, seed=1983,
    )
    base.update(overrides)
    return GenerationParameters(**base)


class TestGenerationParameters:
    def test_paper_tuple_notation(self):
        p = GenerationParameters.from_tuple((1, 3, 0, 4, 6, 10, 1983))
        assert p.task_density == 1
        assert p.average_cost == 3
        assert p.std_deviation == 0
        assert p.server_capacity == 4
        assert p.server_period == 6
        assert p.nb_generation == 10
        assert p.seed == 1983

    def test_tuple_length_checked(self):
        with pytest.raises(ValueError):
            GenerationParameters.from_tuple((1, 2, 3))

    def test_horizon_is_ten_periods(self):
        assert params().horizon == 60.0

    def test_server_spec(self):
        server = params().server(priority=7)
        assert server == ServerSpec(capacity=4.0, period=6.0, priority=7)

    @pytest.mark.parametrize("field,value", [
        ("task_density", 0), ("average_cost", -1), ("std_deviation", -0.1),
        ("nb_generation", 0), ("horizon_periods", 0), ("min_cost", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            params(**{field: value})

    def test_paper_sets_cover_the_six_columns(self):
        keys = {(p.task_density, p.std_deviation) for p in PAPER_SETS}
        assert keys == {(1, 0.0), (2, 0.0), (3, 0.0),
                        (1, 2.0), (2, 2.0), (3, 2.0)}
        assert all(p.seed == 1983 for p in PAPER_SETS)
        assert all(p.nb_generation == 10 for p in PAPER_SETS)


class TestGenerator:
    def test_reproducible_across_instances(self):
        a = RandomSystemGenerator(params()).generate()
        b = RandomSystemGenerator(params()).generate()
        assert len(a) == len(b) == 10
        for sa, sb in zip(a, b):
            assert [e.release for e in sa.events] == [
                e.release for e in sb.events
            ]
            assert [e.declared_cost for e in sa.events] == [
                e.declared_cost for e in sb.events
            ]

    def test_different_seeds_differ(self):
        a = RandomSystemGenerator(params()).generate()
        b = RandomSystemGenerator(params(seed=2024)).generate()
        assert [e.release for e in a[0].events] != [
            e.release for e in b[0].events
        ]

    def test_homogeneous_costs_are_exact(self):
        for system in RandomSystemGenerator(params()).generate():
            assert all(e.declared_cost == 3.0 for e in system.events)

    def test_min_cost_truncation(self):
        # sigma huge relative to mean: many raw draws below 0.1
        systems = RandomSystemGenerator(
            params(average_cost=0.2, std_deviation=2.0)
        ).generate()
        costs = [e.declared_cost for s in systems for e in s.events]
        assert min(costs) == pytest.approx(0.1)
        assert any(c == 0.1 for c in costs)  # truncation actually fired

    def test_density_scales_event_count(self):
        def mean_count(density):
            systems = RandomSystemGenerator(
                params(task_density=density, nb_generation=50)
            ).generate()
            return sum(s.event_count for s in systems) / len(systems)

        # density d => about d events per period over 10 periods
        assert 8 <= mean_count(1) <= 12
        assert 17 <= mean_count(2) <= 23
        assert 26 <= mean_count(3) <= 34

    def test_events_sorted_and_inside_horizon(self):
        for system in RandomSystemGenerator(params(task_density=3)).generate():
            releases = [e.release for e in system.events]
            assert releases == sorted(releases)
            assert all(0 <= r < system.horizon for r in releases)

    def test_events_have_sequential_ids(self):
        system = RandomSystemGenerator(params(task_density=2)).generate()[0]
        assert [e.event_id for e in system.events] == list(
            range(system.event_count)
        )

    def test_campaign_sets_keyed_by_density_std(self):
        sets = generate_campaign_sets()
        assert set(sets) == {(1, 0.0), (2, 0.0), (3, 0.0),
                             (1, 2.0), (2, 2.0), (3, 2.0)}
        assert all(len(v) == 10 for v in sets.values())

    def test_sets_with_shared_seed_have_distinct_streams(self):
        sets = generate_campaign_sets()
        r1 = [e.release for e in sets[(1, 0.0)][0].events]
        r2 = [e.release for e in sets[(2, 0.0)][0].events]
        assert r1 != r2[: len(r1)]


class TestSpecs:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            AperiodicEventSpec(0, release=-1.0, declared_cost=1.0)
        with pytest.raises(ValueError):
            AperiodicEventSpec(0, release=0.0, declared_cost=0.0)
        with pytest.raises(ValueError):
            AperiodicEventSpec(0, release=0.0, declared_cost=1.0,
                               actual_cost=0.0)

    def test_event_cost_falls_back_to_declared(self):
        e = AperiodicEventSpec(0, release=1.0, declared_cost=2.0)
        assert e.cost == 2.0
        e2 = AperiodicEventSpec(0, release=1.0, declared_cost=1.0,
                                actual_cost=2.0)
        assert e2.cost == 2.0

    def test_generated_system_requires_sorted_events(self):
        server = ServerSpec(4, 6, 0)
        events = (
            AperiodicEventSpec(0, release=5.0, declared_cost=1.0),
            AperiodicEventSpec(1, release=2.0, declared_cost=1.0),
        )
        with pytest.raises(ValueError):
            GeneratedSystem(0, server, events, horizon=60.0)

    def test_total_demand(self):
        server = ServerSpec(4, 6, 0)
        events = (
            AperiodicEventSpec(0, release=1.0, declared_cost=2.0),
            AperiodicEventSpec(1, release=2.0, declared_cost=3.0),
        )
        system = GeneratedSystem(0, server, events, horizon=60.0)
        assert system.total_demand == 5.0

    def test_server_spec_validation(self):
        with pytest.raises(ValueError):
            ServerSpec(capacity=7.0, period=6.0, priority=0)
        with pytest.raises(ValueError):
            ServerSpec(capacity=0.0, period=6.0, priority=0)

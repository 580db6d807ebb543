"""Random real-time system generator (paper Section 6.1).

Reimplements ``fr.umlv.randomGenerator.randomSystemGenerator``:

* arrivals form a Poisson process whose rate is ``taskDensity`` events per
  server period (inter-arrival times are exponential with mean
  ``serverPeriod / taskDensity``);
* handler costs are Gaussian ``N(averageCost, stdDeviation^2)``, truncated
  below at 0.1 tu.  The paper explicitly keeps this truncation even though
  it biases the average cost upward for heterogeneous sets ("a bad-design
  issue on our costs generations") — we reproduce it so the bias channel
  of Tables 2-5 is preserved;
* ``nbGeneration`` systems are produced per parameter tuple, each from an
  independent child stream of the master seed, and only events released
  within the ``horizon_periods``-server-period observation window are kept
  (the paper limits simulations and executions to ten server periods).
"""

from __future__ import annotations

from typing import Iterator

from .rng import PortableRandom
from .spec import (
    AperiodicEventSpec,
    GeneratedSystem,
    GenerationParameters,
)

__all__ = ["RandomSystemGenerator", "generate_campaign_sets", "PAPER_SETS"]

#: The six parameter tuples of the paper's campaign: densities 1..3 crossed
#: with cost standard deviations {0, 2}; average cost 3, server (4, 6),
#: ten systems per set, master seed 1983.
PAPER_SETS: tuple[GenerationParameters, ...] = tuple(
    GenerationParameters(
        task_density=density,
        average_cost=3.0,
        std_deviation=std,
        server_capacity=4.0,
        server_period=6.0,
        nb_generation=10,
        seed=1983,
    )
    for std in (0.0, 2.0)
    for density in (1, 2, 3)
)


class RandomSystemGenerator:
    """Generate reproducible aperiodic workloads for one parameter tuple.

    Two generators constructed with equal :class:`GenerationParameters`
    yield identical systems on every platform (see
    :class:`repro.workload.rng.PortableRandom`).
    """

    def __init__(self, params: GenerationParameters) -> None:
        self.params = params
        # Seed mixing: include the tuple's discriminating fields so that
        # sets sharing the master seed (as in the paper, all use 1983) do
        # not share arrival streams.
        mix = hash(
            (
                params.seed,
                round(params.task_density * 1000),
                round(params.average_cost * 1000),
                round(params.std_deviation * 1000),
                round(params.server_capacity * 1000),
                round(params.server_period * 1000),
            )
        )
        self._master = PortableRandom(params.seed ^ (mix & 0x7FFFFFFFFFFFFFFF))

    def generate(self) -> list[GeneratedSystem]:
        """Generate all ``nb_generation`` systems of this set."""
        return [self._generate_one(i, self._master.fork())
                for i in range(self.params.nb_generation)]

    def __iter__(self) -> Iterator[GeneratedSystem]:
        return iter(self.generate())

    def _generate_one(self, system_id: int, rng: PortableRandom) -> GeneratedSystem:
        p = self.params
        horizon = p.horizon
        mean_interarrival = p.server_period / p.task_density
        events: list[AperiodicEventSpec] = []
        t = rng.exponential(mean_interarrival)
        eid = 0
        while t < horizon:
            cost = rng.gauss(p.average_cost, p.std_deviation)
            if cost < p.min_cost:
                # The paper's acknowledged truncation bias, reproduced as-is.
                cost = p.min_cost
            events.append(
                AperiodicEventSpec(event_id=eid, release=t, declared_cost=cost)
            )
            eid += 1
            t += rng.exponential(mean_interarrival)
        return GeneratedSystem(
            system_id=system_id,
            server=p.server(),
            events=tuple(events),
            horizon=horizon,
        )


def generate_campaign_sets(
    sets: tuple[GenerationParameters, ...] = PAPER_SETS,
) -> dict[tuple[float, float], list[GeneratedSystem]]:
    """Generate every set of the paper's campaign.

    Returns a mapping keyed by ``(task_density, std_deviation)`` — the
    ``(d, s)`` column labels of Tables 2-5 — to the set's ten systems.
    """
    out: dict[tuple[float, float], list[GeneratedSystem]] = {}
    for params in sets:
        key = (params.task_density, params.std_deviation)
        if key in out:
            raise ValueError(f"duplicate campaign set key {key}")
        out[key] = RandomSystemGenerator(params).generate()
    return out

"""Supply-bound functions for task servers: offline aperiodic guarantees.

The paper computes aperiodic response times *on-line* (Section 7); this
module adds the complementary *offline* view, modelling a task server as
a periodic resource (in the style of Shin & Lee's periodic resource
model): the **supply bound function** ``sbf(t)`` lower-bounds the service
an aperiodic backlog receives over any window of length ``t``, and its
pseudo-inverse yields worst-case delay bounds — for a one-shot backlog
or for a leaky-bucket-constrained arrival curve.

Specialisation to the highest-priority servers of this repository:

* **Polling Server** — capacity is supplied as a contiguous ``C`` at the
  start of each activation, but an arrival can land just after an idle
  activation discarded its budget: worst-case initial blackout ``T``.
* **Deferrable Server** — the preserved budget is available on arrival;
  under continuous backlog the server still supplies ``C`` per period,
  and the worst arrival lands just after a full budget was consumed:
  blackout ``T - C``.

Both are *sustainable* bounds: the simulator can never serve less (the
property suite checks exactly that against adversarial workloads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ServerSupply", "polling_supply", "deferrable_supply"]


@dataclass(frozen=True)
class ServerSupply:
    """A linear-periodic supply model: ``blackout`` then ``capacity`` per
    ``period``, contiguously at the head of each period."""

    capacity: float
    period: float
    blackout: float

    def __post_init__(self) -> None:
        if not 0 < self.capacity <= self.period:
            raise ValueError("need 0 < capacity <= period")
        if self.blackout < 0:
            raise ValueError("blackout must be non-negative")

    # -- the supply bound function --------------------------------------------

    def sbf(self, t: float) -> float:
        """Guaranteed service in any window of length ``t``."""
        if t <= self.blackout:
            return 0.0
        s = t - self.blackout
        full, rest = divmod(s, self.period)
        return full * self.capacity + min(self.capacity, rest)

    def inverse_sbf(self, workload: float) -> float:
        """Smallest window guaranteed to supply ``workload`` units."""
        if workload < 0:
            raise ValueError(f"workload must be >= 0, got {workload}")
        if workload == 0:
            return 0.0
        # at least one period's supply: a denormal workload / capacity
        # underflows to 0
        full = max(1, math.ceil(workload / self.capacity)) - 1
        rest = workload - full * self.capacity
        return self.blackout + full * self.period + rest

    # -- delay bounds ------------------------------------------------------------

    def delay_bound(self, workload: float) -> float:
        """Worst-case completion delay of a ``workload`` burst arriving at
        the least favourable instant (== ``inverse_sbf``)."""
        return self.inverse_sbf(workload)

    def utilization(self) -> float:
        return self.capacity / self.period

    def arrival_curve_delay(self, burst: float, rate: float) -> float:
        """Worst-case per-unit delay for traffic bounded by the affine
        arrival curve ``alpha(t) = burst + rate * t``.

        This is the supremum of the horizontal deviation
        ``inverse_sbf(alpha(t)) - t``.  Requires ``rate`` strictly below
        the long-run supply rate ``capacity / period`` (otherwise the
        backlog diverges).

        ``inverse_sbf`` jumps wherever ``alpha`` crosses a multiple of
        ``capacity`` (by ``period - capacity``, or by ``blackout`` as it
        leaves 0), and between two crossings the deviation falls with
        slope ``rate - 1``.  So the candidates are ``t = 0`` and the
        instants just after each crossing ``alpha(t) = k * capacity``,
        where the deviation tends to ``blackout + k * period - t``.
        Successive crossings lie ``capacity / rate > period`` apart, so
        their candidates fall with ``k``, and only the first crossing at
        or after ``t = 0`` counts: ``k = ceil(burst / capacity)``.  A
        burst of exactly ``k * capacity`` crosses at ``t = 0+``.
        """
        if burst < 0 or rate < 0:
            raise ValueError("burst and rate must be non-negative")
        if rate >= self.utilization():
            raise ValueError(
                f"arrival rate {rate} is not below the supply rate "
                f"{self.utilization():g}; the backlog is unbounded"
            )
        at_zero = self.inverse_sbf(burst)
        if rate == 0:
            return at_zero
        k = math.ceil(burst / self.capacity)
        crossing = (k * self.capacity - burst) / rate
        return max(at_zero, self.blackout + k * self.period - crossing)


def polling_supply(capacity: float, period: float) -> ServerSupply:
    """Supply model of a highest-priority Polling Server.

    The worst arrival lands just after an idle activation forfeited its
    budget: a full period can elapse before service begins.
    """
    return ServerSupply(capacity=capacity, period=period, blackout=period)


def deferrable_supply(capacity: float, period: float) -> ServerSupply:
    """Supply model of a highest-priority Deferrable Server.

    The preserved budget serves arrivals immediately; the worst arrival
    lands just after a full budget was drained, ``period - capacity``
    before the refill.
    """
    return ServerSupply(
        capacity=capacity, period=period, blackout=period - capacity
    )

"""Wiring helpers: attach overload machinery to servers and events.

The campaigns (uniprocessor and multicore, both arms) all build the same
three-piece stack from one :class:`~repro.overload.config.OverloadConfig`:

* a queue bound (read by the servers at enqueue time),
* one :class:`~repro.overload.breaker.CircuitBreaker` per event source
  (per :class:`~repro.core.events.ServableAsyncEvent` on the execution
  arm, per server on the ideal arm — the simulator has no event objects),
* one :class:`~repro.overload.detector.OverloadDetector` per system,
  scaling every server's replenished capacity while degraded.

All helpers are no-ops on ``overload=None`` or on disabled sub-configs,
so golden-path call sites stay byte-identical.
"""

from __future__ import annotations

from .breaker import CircuitBreaker
from .config import OverloadConfig
from .detector import OverloadDetector, ServiceScaleAction

__all__ = ["build_detector", "build_breaker", "wire_sim_servers"]


def build_detector(
    overload: OverloadConfig | None,
    trace,
    servers,
    watchdog=None,
    name: str = "overload",
) -> OverloadDetector | None:
    """Create the system's detector (or ``None``) and point every server
    at it, with a :class:`ServiceScaleAction` over the same servers."""
    if overload is None or overload.detector is None:
        return None
    detector = OverloadDetector(overload.detector, name=name, trace=trace)
    servers = list(servers)
    if servers:
        detector.add_action(
            ServiceScaleAction(servers, overload.detector.service_scale)
        )
    if watchdog is not None:
        detector.attach_watchdog(watchdog)
    for server in servers:
        server.overload_detector = detector
    return detector


def build_breaker(
    overload: OverloadConfig | None,
    trace,
    name: str,
    detector: OverloadDetector | None = None,
) -> CircuitBreaker | None:
    """Create one circuit breaker for one event source (or ``None``)."""
    if overload is None or overload.breaker is None:
        return None
    return CircuitBreaker(
        overload.breaker, name=name, trace=trace, detector=detector
    )


def wire_sim_servers(
    overload: OverloadConfig | None,
    sim,
    servers,
) -> OverloadDetector | None:
    """Full ideal-arm wiring: queue bound + per-server breaker + detector.

    Wires nothing and returns ``None`` on ``overload=None``, on an
    inactive config or without servers.  The detector listens to the
    simulation's deadline-miss watchdog, attached here when ``sim`` has
    none and the config has a detector.  Ideal servers read
    ``server.overload`` lazily at submit time, so the bound can be
    installed after construction — which lets golden-path construction
    sites stay untouched.
    """
    servers = list(servers)
    if overload is None or not overload.active or not servers:
        return None
    watchdog = sim.watchdog
    if watchdog is None and overload.detector is not None:
        from ..faults.watchdog import DeadlineMissWatchdog

        watchdog = DeadlineMissWatchdog().attach_sim(sim)
    detector = build_detector(overload, sim.trace, servers, watchdog)
    for server in servers:
        server.overload = overload
        server.breaker = build_breaker(
            overload, sim.trace, f"{server.name}-breaker", detector
        )
    return detector

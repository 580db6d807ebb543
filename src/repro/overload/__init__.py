"""Overload management: bounded queues, circuit breakers, degradation.

The paper's on-line admission test (Section 7) decides one arrival at a
time; this package handles *sustained* overload — the regime where a
burst outruns the admission rate and the only alternatives are silent
backlog or chaotic failure:

``repro.overload.config``
    :class:`QueueBound` (size / total-cost bounds with pluggable
    shedding policies), :class:`BreakerConfig`, :class:`DetectorConfig`
    and the umbrella :class:`OverloadConfig`.  Everything defaults to
    *disabled*: golden-path traces are byte-identical.
``repro.overload.breaker``
    :class:`CircuitBreaker` — per-event-source trip / cooldown /
    half-open-probe state machine with ``BREAKER_OPEN`` /
    ``BREAKER_CLOSE`` trace events.
``repro.overload.detector``
    :class:`OverloadDetector` — utilization estimator + miss/shed-rate
    signals driving degraded modes (``MODE_CHANGE`` trace events) through
    :class:`DegradedModeAction` hooks such as :class:`ServiceScaleAction`.
``repro.overload.metrics``
    :class:`OverloadReport` / :func:`measure_overload` — shed rate,
    breaker activity, time-in-degraded-mode and post-burst recovery
    time, computed from the shared trace format.

Servers shed according to the configured policy and record every shed as
a first-class ``SHED`` trace event; the periodic task set stays protected
throughout (its priorities and budgets are untouched by shedding).
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "BreakerState": "breaker",
    "CircuitBreaker": "breaker",
    "SHED_POLICIES": "config",
    "BreakerConfig": "config",
    "DetectorConfig": "config",
    "OverloadConfig": "config",
    "QueueBound": "config",
    "DegradedModeAction": "detector",
    "OverloadDetector": "detector",
    "ServiceScaleAction": "detector",
    "OverloadReport": "metrics",
    "measure_overload": "metrics",
    "build_breaker": "wiring",
    "build_detector": "wiring",
    "wire_sim_servers": "wiring",
})

__all__ = [
    "build_breaker",
    "build_detector",
    "wire_sim_servers",
    "SHED_POLICIES",
    "QueueBound",
    "BreakerConfig",
    "DetectorConfig",
    "OverloadConfig",
    "BreakerState",
    "CircuitBreaker",
    "DegradedModeAction",
    "OverloadDetector",
    "ServiceScaleAction",
    "OverloadReport",
    "measure_overload",
]

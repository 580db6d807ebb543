"""Ideal (literature) aperiodic task server policies for RTSS."""

from ... import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "AperiodicServer": "base",
    "BackgroundServer": "background",
    "IdealDeferrableServer": "deferrable",
    "IdealPollingServer": "polling",
    "PriorityExchangeServer": "priority_exchange",
    "SlackStealingServer": "slack_stealing",
    "SporadicServer": "sporadic",
    "TotalBandwidthServer": "total_bandwidth",
})

__all__ = [
    "AperiodicServer",
    "BackgroundServer",
    "IdealDeferrableServer",
    "IdealPollingServer",
    "PriorityExchangeServer",
    "SlackStealingServer",
    "SporadicServer",
    "TotalBandwidthServer",
]

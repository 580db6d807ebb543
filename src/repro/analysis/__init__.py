"""Feasibility and schedulability analysis.

Implements the off-line side of the paper's two-level analysis story
(Section 2): exact response-time analysis for the periodic tasks — with
the Polling Server folded in as a periodic task and the Deferrable
Server through its modified (double-hit) interference — plus the
decentralised ``getInterference()`` design the paper proposes in
Section 3 and the classic utilization bounds.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "RTAResult": "rta",
    "TaskResponse": "rta",
    "response_time_analysis": "rta",
    "DeferrableServerInterference": "interference",
    "InterferenceSource": "interference",
    "PeriodicInterference": "interference",
    "SporadicInterference": "interference",
    "TaskServerInterference": "interference",
    "response_time_with_interference": "interference",
    "ServerAwareResponse": "server_analysis",
    "ServerAwareResult": "server_analysis",
    "analyse_with_server": "server_analysis",
    "deferrable_server_sources": "server_analysis",
    "polling_server_sources": "server_analysis",
    "ServerSupply": "resource_model",
    "deferrable_supply": "resource_model",
    "polling_supply": "resource_model",
    "deferrable_server_bound": "utilization",
    "hyperperiod": "utilization",
    "liu_layland_bound": "utilization",
    "rm_schedulable_by_utilization": "utilization",
    "total_utilization": "utilization",
})

__all__ = [
    "RTAResult",
    "TaskResponse",
    "response_time_analysis",
    "DeferrableServerInterference",
    "InterferenceSource",
    "PeriodicInterference",
    "SporadicInterference",
    "TaskServerInterference",
    "response_time_with_interference",
    "ServerAwareResponse",
    "ServerAwareResult",
    "analyse_with_server",
    "deferrable_server_sources",
    "polling_server_sources",
    "deferrable_server_bound",
    "hyperperiod",
    "liu_layland_bound",
    "rm_schedulable_by_utilization",
    "total_utilization",
    "ServerSupply",
    "deferrable_supply",
    "polling_supply",
]

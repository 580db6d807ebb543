"""The Task Server Framework — the paper's contribution (Sections 3-4).

Six classes extend the (emulated) RTSJ with aperiodic task servers:

* :class:`ServableAsyncEvent` / :class:`ServableAsyncEventHandler` —
  servable events and their server-scheduled handlers;
* :class:`TaskServer` — the abstract server (Schedulable + scheduler of
  handlers);
* :class:`PollingTaskServer` / :class:`DeferrableTaskServer` — the two
  adapted policies;
* :class:`TaskServerParameters` — construction parameters.

Section 7's machinery is here too: the
:class:`~repro.core.queues.InstanceBucketQueue` list-of-lists, the
response-time equations and the on-line admission controllers.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "HandlerRelease": "events",
    "ServableAsyncEvent": "events",
    "ServableAsyncEventHandler": "events",
    "TaskServerParameters": "parameters",
    "BucketPlacement": "queues",
    "InstanceBucketQueue": "queues",
    "PendingQueue": "queues",
    "TaskServer": "server",
    "PollingTaskServer": "polling",
    "DeferrableTaskServer": "deferrable",
    "cape": "response_time",
    "ideal_ps_finish_time": "response_time",
    "ideal_ps_response_time": "response_time",
    "implementation_ps_response_time": "response_time",
    "AdmissionDecision": "admission",
    "BucketAdmissionController": "admission",
    "BucketLedger": "admission",
    "BucketSlot": "admission",
    "IdealPSAdmissionController": "admission",
})

__all__ = [
    "HandlerRelease",
    "ServableAsyncEvent",
    "ServableAsyncEventHandler",
    "TaskServerParameters",
    "BucketPlacement",
    "InstanceBucketQueue",
    "PendingQueue",
    "TaskServer",
    "PollingTaskServer",
    "DeferrableTaskServer",
    "cape",
    "ideal_ps_finish_time",
    "ideal_ps_response_time",
    "implementation_ps_response_time",
    "AdmissionDecision",
    "BucketAdmissionController",
    "BucketLedger",
    "BucketSlot",
    "IdealPSAdmissionController",
]

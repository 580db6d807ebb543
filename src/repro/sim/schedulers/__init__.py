"""Scheduling policies implemented by RTSS (paper Section 5)."""

from ... import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "FixedPriorityPolicy": "fp",
    "EarliestDeadlineFirstPolicy": "edf",
    "DOverScheduler": "dover",
    "DOverResult": "dover",
})

__all__ = [
    "FixedPriorityPolicy",
    "EarliestDeadlineFirstPolicy",
    "DOverScheduler",
    "DOverResult",
]

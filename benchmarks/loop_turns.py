"""Event-loop turn counting for the benchmarks' count guards.

A turn of an asyncio event loop polls its selector exactly once, so a
selector that tallies its polls counts the turns from outside the
program.  :func:`count_loop_turns` installs such a selector in every
event loop a callable creates.
"""

from __future__ import annotations

import asyncio
import selectors


class PollCountingSelector(selectors.DefaultSelector):
    """A selector that counts its polls: every event-loop turn polls
    the selector exactly once."""

    def __init__(self) -> None:
        super().__init__()
        self.polls = 0

    def select(self, timeout=None):
        self.polls += 1
        return super().select(timeout)


def count_loop_turns(run):
    """``run()`` with every new event loop counting its turns; returns
    ``(result, turns)``."""
    selectors_made: list[PollCountingSelector] = []

    class CountingPolicy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            selector = PollCountingSelector()
            selectors_made.append(selector)
            return asyncio.SelectorEventLoop(selector)

    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(CountingPolicy())
    try:
        result = run()
    finally:
        asyncio.set_event_loop_policy(previous)
    return result, sum(s.polls for s in selectors_made)

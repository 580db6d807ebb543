"""The Section 7 admission protocol as one oracle.

:class:`AdmissionProtocolMonitor` checks every admission timeline with
the same rules, fed through a :class:`~repro.verify.invariants.Sweep`.
That timeline is a plain service's trace, swept after the run
(:meth:`~repro.service.service.AdmissionService.finish`), the merge of
a sharded fabric's incarnations, swept after the run too
(:meth:`~repro.fabric.fabric.AdmissionFabric.finish`), or the merge of
a gateway's service incarnations and its own plane, fed online while
the gateway serves (:class:`~repro.gateway.gateway.AdmissionGateway`).
The monitor keeps no event and no detail string, so an online sweep
frees each event once it is fed.  In the fabric's merge every service
event carries a ``[shard-k]`` detail suffix and the control-plane
events (``SHARD_DOWN`` / ``FAILOVER`` / ``SHARD_RESTORED``) interleave
untagged; an untagged service event is the shard-``None`` case of the
same rules.  The monitor enforces:

* **exactly one terminal per admitted request** — a request admitted
  anywhere reaches exactly one COMPLETION or SHED by the horizon,
  across crashes, restores and failovers; a second non-resumed RELEASE
  for the same id is a double admission (the idempotency breach a
  failover or a retry must not introduce);
* a restored incarnation may re-announce its in-flight jobs (RELEASE
  with a ``resumed`` detail) — legal only for an id admitted earlier in
  the timeline or listed in ``admitted_before``;
* hard requests never log a DEADLINE_MISS (cut-and-SHED is the only
  legal miss path), and a corrective re-plan (local / renegotiate /
  degrade) stays in the causal shadow of a divergence or a mode change
  *on the same shard* (restore and drain re-plans are exempt);
* the control plane is coherent: no double declaration, no restore of
  a shard never declared down, no failover naming a shard that is up.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable

from ..sim.trace import TraceEvent, TraceEventKind
from .invariants import TraceMonitor

__all__ = ["AdmissionProtocolMonitor"]

_CORRECTIVE_LEVELS = ("local", "renegotiate", "degrade")
_SHARD_TAG = re.compile(r" \[shard-(\d+)\]$")
_FAILOVER_FROM = re.compile(r"^shard-(\d+) -> ")

# members resolved once at import: a serving gateway feeds the monitor
# a release and a terminal per admitted request
_RELEASE = TraceEventKind.RELEASE
_COMPLETION = TraceEventKind.COMPLETION
_SHED = TraceEventKind.SHED


def _shard_of(event: TraceEvent) -> int | None:
    """The shard a merged service event came from (None = untagged)."""
    detail = event.detail
    if not detail.endswith("]"):
        return None
    match = _SHARD_TAG.search(detail)
    return int(match.group(1)) if match else None


def _admission(event: TraceEvent) -> tuple[float, bool, int | None]:
    """(time, hard, shard) of an admitting RELEASE."""
    # a word of its own: the tag "[shard-k]" contains "hard"
    return event.time, "hard" in event.detail.split(), _shard_of(event)


@functools.cache
def _settled(hard: bool, shard: int | None) -> tuple[None, bool, int | None]:
    """The one (None, hard, shard) entry shared by settled requests
    (two per shard at most, so the cache stays small)."""
    return None, hard, shard


def _first_terminal(code: int) -> tuple[str, int]:
    """(kind, feed index) of a first terminal kept as its code."""
    return ("shed", ~code) if code < 0 else ("completion", code)


def _on(shard: int | None) -> str:
    """`` on shard-k`` for a tagged event, nothing for an untagged one."""
    return "" if shard is None else f" on shard-{shard}"


class AdmissionProtocolMonitor(TraceMonitor):
    """Exactly one terminal per admitted request, across shards,
    crashes and restores.

    ``admitted_before`` names the requests admitted before the timeline
    begins: a restored standalone service's trace starts with the
    ``resumed`` RELEASEs of the jobs its checkpoint replayed, and that
    re-announcement is their admission.  A merged fabric or gateway
    timeline holds every incarnation, so it passes none.
    """

    name = "admission-protocol"
    kinds = frozenset((
        TraceEventKind.RELEASE, TraceEventKind.COMPLETION,
        TraceEventKind.SHED, TraceEventKind.DEADLINE_MISS,
        TraceEventKind.DIVERGENCE, TraceEventKind.MODE_CHANGE,
        TraceEventKind.REPLAN, TraceEventKind.SHARD_DOWN,
        TraceEventKind.SHARD_RESTORED, TraceEventKind.FAILOVER,
    ))

    def __init__(self, replan_window: float = 50.0,
                 admitted_before: Iterable[str] = ()) -> None:
        super().__init__()
        self.replan_window = replan_window
        self.admitted_before = frozenset(admitted_before)
        #: request id -> (time, hard, shard) of the RELEASE that
        #: admitted it.  No event is kept, so an online sweep frees
        #: each one once it is fed; and once a request has a terminal
        #: it cannot be silently dropped, so its entry becomes a shared
        #: (None, hard, shard)
        self._released: dict[str, tuple[float | None, bool, int | None]] = {}
        #: request id -> the feed index of its first terminal, bitwise
        #: negated for a SHED; once a second terminal arrives, a list of
        #: that code, then (kind, time, index) per later terminal
        self._terminals: dict[str, int | list] = {}
        #: per-shard last divergence/mode-change instant
        self._last_divergence: dict[int | None, float] = {}
        self._down: set[str] = set()

    def on_event(self, index: int, event: TraceEvent) -> None:
        kind = event.kind
        if kind is _RELEASE:
            self._on_release(index, event)
        elif kind is _COMPLETION or kind is _SHED:
            subject = event.subject
            released = self._released.get(subject)
            if released is None:
                self.report.record(
                    "terminal-without-admission", event.time, (subject,),
                    f"{kind.value} for a request never admitted",
                    witness=(index,),
                )
            elif released[0] is not None:
                self._released[subject] = _settled(released[1], released[2])
            seen = self._terminals.get(subject)
            if seen is None:
                self._terminals[subject] = (
                    index if kind is _COMPLETION else ~index
                )
            elif isinstance(seen, list):
                seen.append((kind.value, event.time, index))
            else:
                self._terminals[subject] = [
                    seen, (kind.value, event.time, index),
                ]
        elif kind is TraceEventKind.DEADLINE_MISS:
            released = self._released.get(event.subject)
            if released is not None and released[1]:
                self.report.record(
                    "hard-deadline-miss", event.time, (event.subject,),
                    "a hard request missed its deadline instead of being "
                    "cut and shed",
                    witness=(index,),
                )
        elif kind in (TraceEventKind.DIVERGENCE, TraceEventKind.MODE_CHANGE):
            # a detected divergence or an overload mode switch both
            # legitimise corrective re-planning
            self._last_divergence[_shard_of(event)] = event.time
        elif kind is TraceEventKind.REPLAN:
            self._on_replan(index, event)
        elif kind is TraceEventKind.SHARD_DOWN:
            if event.subject in self._down:
                self.report.record(
                    "duplicate-shard-down", event.time, (event.subject,),
                    "shard declared down while already down",
                    witness=(index,),
                )
            self._down.add(event.subject)
        elif kind is TraceEventKind.SHARD_RESTORED:
            if event.subject not in self._down:
                self.report.record(
                    "restore-without-down", event.time, (event.subject,),
                    "shard restored without a prior down declaration",
                    witness=(index,),
                )
            self._down.discard(event.subject)
        elif kind is TraceEventKind.FAILOVER:
            match = _FAILOVER_FROM.match(event.detail)
            home = f"shard-{match.group(1)}" if match else "?"
            if home not in self._down:
                self.report.record(
                    "failover-without-down", event.time, (event.subject,),
                    f"source failed over away from {home}, which is not "
                    "declared down",
                    witness=(index,),
                )

    def _on_release(self, index: int, event: TraceEvent) -> None:
        rid = event.subject
        released = self._released.get(rid)
        if event.detail.startswith("resumed"):
            # a restored incarnation re-announcing checkpointed
            # in-flight work — legal iff the id was really admitted
            if released is None:
                if rid not in self.admitted_before:
                    self.report.record(
                        "resumed-without-admission", event.time, (rid,),
                        "restore resumed a request that was never "
                        "admitted",
                        witness=(index,),
                    )
                self._released[rid] = _admission(event)
            return
        if released is not None:
            shard = _shard_of(event)
            origin = released[2]
            where = (
                f"{_on(shard)} twice" if origin == shard
                else f"{_on(origin)} and again{_on(shard)}"
            )
            self.report.record(
                "duplicate-admission", event.time, (rid,),
                f"request admitted{where} (idempotency breach)",
                witness=(index,),
            )
            return
        self._released[rid] = _admission(event)

    def _on_replan(self, index: int, event: TraceEvent) -> None:
        level = event.detail.split()[0] if event.detail else ""
        if level not in _CORRECTIVE_LEVELS:
            return
        shard = _shard_of(event)
        last = self._last_divergence.get(shard)
        if last is None or event.time - last > self.replan_window:
            self.report.record(
                "replan-without-divergence", event.time, (event.subject,),
                f"{level} re-plan with no divergence inside "
                f"{self.replan_window:g}tu{_on(shard)}",
                witness=(index,),
            )

    def finish(self, horizon: float) -> None:
        for subject, terminals in self._terminals.items():
            if isinstance(terminals, list):
                first, *later = terminals
                first_kind, first_index = _first_terminal(first)
                kinds = "+".join(
                    [first_kind, *(kind for kind, _t, _i in later)]
                )
                self.report.record(
                    "duplicate-terminal", later[0][1], (subject,),
                    f"{len(terminals)} terminals ({kinds})",
                    witness=(first_index, *(i for _k, _t, i in later)),
                )
        for subject, (time, _hard, shard) in self._released.items():
            if subject not in self._terminals:
                self.report.record(
                    "silently-dropped", horizon, (subject,),
                    f"admitted at {time:g}{_on(shard)} but neither "
                    "completed nor shed by the horizon",
                )

    def first_terminals(self) -> dict[str, str]:
        """Request id -> the kind of its first terminal, in feed order
        (``"completion"`` or ``"shed"``)."""
        return {
            subject: _first_terminal(
                terminals[0] if isinstance(terminals, list) else terminals
            )[0]
            for subject, terminals in self._terminals.items()
        }

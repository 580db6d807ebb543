"""``Timed`` / ``Interruptible`` — RTSJ asynchronous transfer of control.

The paper's task servers enforce their capacity with exactly this
mechanism (Section 4): the handler body is an :class:`Interruptible`
executed through :meth:`Timed.do_interruptible`; if the budget elapses
before ``run()`` completes, an :class:`AsynchronouslyInterruptedException`
is delivered at the handler's current yield point and
``interrupt_action()`` runs instead of the remainder.

Budget expiry is *wall-clock* (the RTSJ ``Timed`` is driven by a timer),
so virtual time spent preempted — e.g. by the event-firing timer ISRs the
paper blames for its interrupted-aperiodics ratio — counts against the
budget even though it consumes no handler CPU.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generator

from .instructions import Compute, Instruction
from .time_types import RelativeTime

__all__ = ["AsynchronouslyInterruptedException", "Interruptible", "Timed"]


class AsynchronouslyInterruptedException(Exception):
    """Delivered into an interruptible section whose time budget expired.

    ``owner`` identifies the :class:`Timed` whose deadline fired (the
    RTSJ gives each ATC an identity for exactly this reason): with
    nested timed sections, only the owner's section aborts — enclosing
    sections observe the inner failure and continue under their own
    budgets.  ``None`` means "unowned" and is treated as belonging to
    whichever section catches it first.
    """

    def __init__(self, owner: object | None = None) -> None:
        super().__init__()
        self.owner = owner


class Interruptible(ABC):
    """A section of code that may be abandoned part-way through.

    ``run`` is a *generator* (it yields VM instructions); ``interrupt_action``
    is a plain callback invoked — in virtual zero time — when the section
    is abandoned.
    """

    @abstractmethod
    def run(self, timed: "Timed") -> Generator[Instruction, Any, Any]:
        """The interruptible logic (a generator of VM instructions)."""

    def interrupt_action(
        self, exc: AsynchronouslyInterruptedException
    ) -> None:
        """Called when ``run`` was interrupted before completing."""


class Timed:
    """Execute an :class:`Interruptible` under a wall-clock time budget."""

    def __init__(self, budget: RelativeTime, *, now_ns: int) -> None:
        if budget.total_nanos <= 0:
            raise ValueError("Timed budget must be positive")
        self.budget = budget
        self._deadline_ns = now_ns + budget.total_nanos

    @property
    def deadline_ns(self) -> int:
        """Absolute virtual time at which the section will be interrupted."""
        return self._deadline_ns

    def do_interruptible(
        self, interruptible: Interruptible
    ) -> Generator[Instruction, Any, bool]:
        """Generator helper: ``ok = yield from timed.do_interruptible(i)``.

        Returns ``True`` when ``run`` completed within the budget and
        ``False`` when it was interrupted (after ``interrupt_action`` ran).
        """
        section = interruptible.run(self)
        try:
            yield from self._bounded(section)
        except AsynchronouslyInterruptedException as exc:
            if exc.owner is not None and exc.owner is not self:
                # an enclosing Timed's interrupt: not ours to absorb —
                # keep unwinding so its own wrapper handles it
                raise
            interruptible.interrupt_action(exc)
            return False
        return True

    def do_compute(
        self, duration_ns: int
    ) -> Generator[Instruction, Any, bool]:
        """Generator helper: ``ok = yield from timed.do_compute(ns)``.

        The section is straight-line CPU consumption: one
        :class:`Compute` of ``duration_ns`` carrying this budget's
        deadline.  Same contract as :meth:`do_interruptible` on a section
        whose ``run`` yields that compute and has no interrupt action:
        ``True`` when it completed within the budget, ``False`` when
        this budget interrupted it.
        """
        try:
            yield Compute(duration_ns, self._deadline_ns, self)
        except AsynchronouslyInterruptedException as exc:
            if exc.owner is not None and exc.owner is not self:
                # an enclosing Timed's interrupt: keep unwinding
                raise
            return False
        return True

    def _bounded(
        self, section: Generator[Instruction, Any, Any]
    ) -> Generator[Instruction, Any, Any]:
        """Re-yield the section's instructions with the budget deadline
        attached to every compute slice.

        Interrupt delivery honours ATC identity: an exception owned by a
        *nested* Timed is forwarded into the section (where that inner
        wrapper consumes it) and this section then continues; an
        exception owned by *this* Timed (or unowned) must terminate the
        section — a section that swallows it and keeps yielding is
        abandoned.
        """
        try:
            instr = next(section)
        except StopIteration as stop:
            return stop.value
        while True:
            if isinstance(instr, Compute):
                instr = instr.with_deadline(self._deadline_ns, self)
            try:
                sent = yield instr
            except AsynchronouslyInterruptedException as exc:
                mine = exc.owner is None or exc.owner is self
                try:
                    instr = section.throw(exc)
                except StopIteration as stop:
                    if mine:
                        # our budget expired; the section may not absorb
                        # the ATC even by finishing early
                        raise exc
                    return stop.value
                except AsynchronouslyInterruptedException:
                    # not consumed below: propagate to our caller
                    raise
                else:
                    if mine:
                        # the section swallowed our ATC and kept yielding
                        section.close()
                        raise
                    # an inner Timed consumed its own interrupt and the
                    # section continued: keep serving it
                    continue
            try:
                instr = section.send(sent)
            except StopIteration as stop:
                return stop.value

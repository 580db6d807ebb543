"""Realtime threads for the emulated VM.

A :class:`RealtimeThread` wraps a *logic* callable returning a generator
of VM instructions (see :mod:`repro.rtsj.instructions`).  The VM drives
the generator; scheduling state lives here.

The RTSJ priority range is modelled after the usual JVM mapping: 28
real-time priorities from :data:`MIN_RT_PRIORITY` (11) to
:data:`MAX_RT_PRIORITY` (38).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, TYPE_CHECKING

from .instructions import Compute, Instruction, WaitForNextPeriod
from .params import (
    PeriodicParameters,
    PriorityParameters,
    ProcessingGroupParameters,
    ReleaseParameters,
    SchedulingParameters,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .vm import RTSJVirtualMachine

__all__ = [
    "MIN_RT_PRIORITY",
    "MAX_RT_PRIORITY",
    "ThreadState",
    "Schedulable",
    "RealtimeThread",
]

MIN_RT_PRIORITY = 11
MAX_RT_PRIORITY = 38

ThreadLogic = Callable[["RealtimeThread"], Generator[Instruction, Any, Any]]


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    BLOCKED = "blocked"
    TERMINATED = "terminated"


class Schedulable:
    """Base for objects the scheduler can dispatch (RTSJ ``Schedulable``)."""

    def __init__(
        self,
        scheduling: SchedulingParameters | None = None,
        release: ReleaseParameters | None = None,
        pgp: ProcessingGroupParameters | None = None,
    ) -> None:
        self.scheduling = scheduling
        self.release = release
        self.pgp = pgp

    @property
    def priority(self) -> int:
        if isinstance(self.scheduling, PriorityParameters):
            return self.scheduling.priority
        return MIN_RT_PRIORITY


class RealtimeThread(Schedulable):
    """A schedulable thread of control on the emulated VM.

    ``logic`` receives the thread itself (giving access to ``thread.vm``
    for clock reads and event firing) and yields VM instructions.
    Periodic threads (``release`` is :class:`PeriodicParameters`) may
    yield :class:`WaitForNextPeriod`, mirroring
    ``RealtimeThread.waitForNextPeriod()``.
    """

    def __init__(
        self,
        logic: ThreadLogic,
        scheduling: SchedulingParameters | None = None,
        release: ReleaseParameters | None = None,
        pgp: ProcessingGroupParameters | None = None,
        name: str = "rt-thread",
    ) -> None:
        super().__init__(scheduling, release, pgp)
        self.logic = logic
        self.name = name
        self.state = ThreadState.NEW
        self.vm: "RTSJVirtualMachine | None" = None
        self._generator: Generator[Instruction, Any, Any] | None = None
        self._instruction: Instruction | None = None
        #: absolute time of the next periodic release (periodic threads)
        self.next_release_ns: int = 0
        #: banked firings not yet consumed by ``AwaitRelease``
        self.pending_releases: int = 0
        #: label shown in trace segments while a handler runs (optional)
        self.activity_label: str | None = None

    # -- lifecycle driven by the VM ------------------------------------------

    def start(self, vm: "RTSJVirtualMachine") -> None:
        """Register with a VM; the thread becomes ready at its start time
        (periodic threads) or immediately."""
        if self.state is not ThreadState.NEW:
            raise RuntimeError(f"thread {self.name!r} already started")
        self.vm = vm
        self._generator = self.logic(self)
        if isinstance(self.release, PeriodicParameters):
            self.next_release_ns = self.release.start.total_nanos
            start_at = self.next_release_ns
        else:
            start_at = vm.now_ns
        self.state = ThreadState.BLOCKED
        vm.schedule_thread_start(self, start_at)

    def retire(self) -> None:
        """Drop the logic and its suspended generator once the VM's run
        is over (called by the VM).

        The thread can never run again, and both close reference cycles
        through whatever the logic captured (its server or handler holds
        this thread).  Releasing the generator closes it, so its
        ``finally`` blocks run, as they would when the cyclic collector
        freed it.
        """
        self.logic = None  # type: ignore[assignment]
        self._generator = None

    @property
    def instruction(self) -> Instruction | None:
        """The instruction currently being executed (a Compute when the
        thread holds or competes for the processor)."""
        return self._instruction

    def set_resume_marker(self) -> None:
        """Park the thread on a zero-length compute so the VM dispatches
        it before resuming its generator (used at release/wake time)."""
        self._instruction = Compute(0)

    def ready(self) -> bool:
        return self.state is ThreadState.READY

    def advance(self, *, value: Any = None,
                exc: BaseException | None = None) -> Instruction | None:
        """Resume the generator (zero virtual time) and stash the next
        instruction; returns ``None`` when the logic finished."""
        assert self._generator is not None, "thread not started"
        try:
            if exc is not None:
                instr = self._generator.throw(exc)
            else:
                instr = self._generator.send(value)
        except StopIteration:
            self._instruction = None
            self.state = ThreadState.TERMINATED
            return None
        if not isinstance(instr, Instruction):
            raise TypeError(
                f"thread {self.name!r} yielded {instr!r}, not an Instruction"
            )
        self._instruction = instr
        return instr

    # -- convenience for logic code ----------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current virtual time (logic-side convenience)."""
        assert self.vm is not None
        return self.vm.now_ns

    def compute_until_next_period(self) -> Instruction:
        """Helper building a WaitForNextPeriod instruction."""
        return WaitForNextPeriod()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RealtimeThread {self.name} prio={self.priority} {self.state.value}>"


def burn(duration_ns: int) -> Generator[Instruction, Any, None]:
    """Tiny logic helper: a generator that computes for ``duration_ns``."""
    if duration_ns > 0:
        yield Compute(duration_ns)

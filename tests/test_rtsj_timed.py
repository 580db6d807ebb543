"""Unit tests for Timed / Interruptible asynchronous transfer of control."""

from __future__ import annotations

import pytest

from repro.rtsj import (
    AsynchronouslyInterruptedException,
    Compute,
    Interruptible,
    OverheadModel,
    PriorityParameters,
    RealtimeThread,
    RelativeTime,
    RTSJVirtualMachine,
    Timed,
)
from conftest import M, make_periodic_thread, segments_of


class Work(Interruptible):
    """Burns a cost; records completion/interruption and cleanup."""

    def __init__(self, cost_units: float) -> None:
        self.cost_ns = round(cost_units * M)
        self.completed = False
        self.interrupted_at: float | None = None
        self.cleanup_ran = False

    def run(self, timed):
        try:
            yield Compute(self.cost_ns)
            self.completed = True
        finally:
            self.cleanup_ran = True

    def interrupt_action(self, exc):
        self.interrupted_at = exc  # presence marks the call


def run_server(zero_vm, script, priority=30):
    """Run ``script`` (a generator function of the thread) on a thread."""
    results = []

    def logic(thread):
        result = yield from script(thread)
        results.append(result)

    zero_vm.add_thread(RealtimeThread(logic, PriorityParameters(priority),
                                      name="srv"))
    trace = zero_vm.run(60 * M)
    return results, trace


class TestTimed:
    def test_completion_within_budget(self, zero_vm):
        work = Work(3)

        def script(thread):
            timed = Timed(RelativeTime(4, 0), now_ns=thread.now_ns)
            ok = yield from timed.do_interruptible(work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        assert results == [(True, 3)]
        assert work.completed and work.cleanup_ran
        assert work.interrupted_at is None

    def test_interrupt_on_budget_expiry(self, zero_vm):
        work = Work(5)

        def script(thread):
            timed = Timed(RelativeTime(2, 0), now_ns=thread.now_ns)
            ok = yield from timed.do_interruptible(work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        assert results == [(False, 2)]
        assert not work.completed
        assert work.cleanup_ran          # finally blocks run
        assert work.interrupted_at is not None

    def test_completion_exactly_at_budget(self, zero_vm):
        work = Work(2)

        def script(thread):
            timed = Timed(RelativeTime(2, 0), now_ns=thread.now_ns)
            ok = yield from timed.do_interruptible(work)
            return ok

        results, _ = run_server(zero_vm, script)
        assert results == [True]  # finishing at the deadline counts

    def test_wall_clock_budget_includes_preemption(self, zero_vm):
        # an ISR window inside the section eats budget without doing work
        zero_vm_overhead_isr = zero_vm
        work = Work(3)

        def script(thread):
            timed = Timed(RelativeTime(4, 0), now_ns=thread.now_ns)
            ok = yield from timed.do_interruptible(work)
            return ok

        # 2 tu of ISR injected at t=1: wall time 3+2 > budget 4
        zero_vm_overhead_isr.schedule_event(
            1 * M, lambda now: zero_vm_overhead_isr.add_isr_time(2 * M)
        )
        results, trace = run_server(zero_vm_overhead_isr, script)
        assert results == [False]
        assert segments_of(trace, "ISR") == [(1, 3)]
        # interrupted exactly at the wall-clock deadline t=4
        assert segments_of(trace, "srv") == [(0, 1), (3, 4)]

    def test_sequential_sections_independent_budgets(self, zero_vm):
        w1, w2 = Work(1), Work(9)

        def script(thread):
            ok1 = yield from Timed(
                RelativeTime(2, 0), now_ns=thread.now_ns
            ).do_interruptible(w1)
            ok2 = yield from Timed(
                RelativeTime(3, 0), now_ns=thread.now_ns
            ).do_interruptible(w2)
            return (ok1, ok2)

        results, _ = run_server(zero_vm, script)
        assert results == [(True, False)]
        assert w1.completed and not w2.completed

    def test_multi_step_section_interrupted_mid_sequence(self, zero_vm):
        steps = []

        class Stepped(Interruptible):
            def __init__(self):
                self.interrupted = False

            def run(self, timed):
                for i in range(5):
                    yield Compute(1 * M)
                    steps.append(i)

            def interrupt_action(self, exc):
                self.interrupted = True

        work = Stepped()

        def script(thread):
            ok = yield from Timed(
                RelativeTime(2, 500_000), now_ns=thread.now_ns
            ).do_interruptible(work)
            return ok

        results, _ = run_server(zero_vm, script)
        assert results == [False]
        assert steps == [0, 1]  # third step cut at 2.5
        assert work.interrupted

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Timed(RelativeTime(0, 0), now_ns=0)

    def test_section_swallowing_aie_is_abandoned(self, zero_vm):
        # interruptible code must not continue past the ATC; the wrapper
        # closes it and still reports the interrupt
        post = []

        class Naughty(Interruptible):
            def run(self, timed):
                try:
                    yield Compute(5 * M)
                except AsynchronouslyInterruptedException:
                    pass
                yield Compute(1 * M)  # must never run
                post.append("ran past interrupt")

            def interrupt_action(self, exc):
                post.append("interrupt_action")

        def script(thread):
            ok = yield from Timed(
                RelativeTime(1, 0), now_ns=thread.now_ns
            ).do_interruptible(Naughty())
            return ok

        results, _ = run_server(zero_vm, script)
        assert results == [False]
        assert post == ["interrupt_action"]

    def test_higher_priority_thread_preemption_counts_against_budget(
        self, zero_vm
    ):
        zero_vm.add_thread(make_periodic_thread("hi", 2, 8, 35, offset=1))
        work = Work(3)

        def script(thread):
            ok = yield from Timed(
                RelativeTime(4, 0), now_ns=thread.now_ns
            ).do_interruptible(work)
            return (ok, thread.now_ns // M)

        results, trace = run_server(zero_vm, script, priority=30)
        # srv runs [0,1), hi [1,3), srv [3,4) -> interrupted at 4 with
        # one unit of work left
        assert results == [(False, 4)]
        assert segments_of(trace, "hi")[0] == (1, 3)


class TestDoCompute:
    """``Timed.do_compute``: a straight-line section as one Compute."""

    @pytest.mark.parametrize("cost, budget, expected", [
        (3, 4, (True, 3)),    # completes within the budget
        (2, 2, (True, 2)),    # finishing at the deadline counts
        (5, 2, (False, 2)),   # interrupted at the wall-clock deadline
    ])
    def test_same_outcome_as_do_interruptible(self, cost, budget,
                                              expected):
        outcomes = []
        for section in ("compute", "interruptible"):
            def script(thread, section=section):
                timed = Timed(RelativeTime(budget, 0), now_ns=thread.now_ns)
                if section == "compute":
                    ok = yield from timed.do_compute(cost * M)
                else:
                    ok = yield from timed.do_interruptible(Work(cost))
                return (ok, thread.now_ns // M)

            vm = RTSJVirtualMachine(overhead=OverheadModel.zero())
            results, trace = run_server(vm, script)
            outcomes.append((results, segments_of(trace, "srv")))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [expected]

    def test_inner_budget_interrupts_only_itself(self, zero_vm):
        class Outer(Interruptible):
            inner_ok = None

            def run(self, timed):
                inner = Timed(RelativeTime(2, 0), now_ns=0)
                self.inner_ok = yield from inner.do_compute(5 * M)
                yield Compute(1 * M)

        outer_work = Outer()

        def script(thread):
            outer = Timed(RelativeTime(10, 0), now_ns=thread.now_ns)
            ok = yield from outer.do_interruptible(outer_work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        assert outer_work.inner_ok is False
        assert results == [(True, 3)]

    def test_outer_budget_unwinds_through_inner_compute(self, zero_vm):
        class Outer(Interruptible):
            interrupted = False
            inner_returned = False

            def run(self, timed):
                inner = Timed(RelativeTime(8, 0), now_ns=0)
                yield from inner.do_compute(5 * M)
                self.inner_returned = True

            def interrupt_action(self, exc):
                self.interrupted = True

        outer_work = Outer()

        def script(thread):
            outer = Timed(RelativeTime(2, 0), now_ns=thread.now_ns)
            ok = yield from outer.do_interruptible(outer_work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        # the outer deadline is earlier: the inner section re-raises the
        # outer's interrupt instead of absorbing it
        assert results == [(False, 2)]
        assert outer_work.interrupted
        assert not outer_work.inner_returned


class TestNestedTimed:
    def test_inner_budget_tightens_outer(self, zero_vm):
        inner_work = Work(5)

        class Outer(Interruptible):
            def __init__(self):
                self.inner_ok = None
                self.interrupted = False

            def run(self, timed):
                inner = Timed(RelativeTime(2, 0), now_ns=0)
                self.inner_ok = yield from inner.do_interruptible(inner_work)
                yield Compute(1 * M)

            def interrupt_action(self, exc):
                self.interrupted = True

        outer_work = Outer()

        def script(thread):
            outer = Timed(RelativeTime(10, 0), now_ns=thread.now_ns)
            ok = yield from outer.do_interruptible(outer_work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        # the inner 2tu budget interrupts the 5tu work; the outer section
        # then continues and completes within its own 10tu budget
        assert outer_work.inner_ok is False
        assert inner_work.interrupted_at is not None
        assert results == [(True, 3)]

    def test_outer_budget_cuts_inner_section(self, zero_vm):
        inner_work = Work(5)

        class Outer(Interruptible):
            def __init__(self):
                self.interrupted = False

            def run(self, timed):
                inner = Timed(RelativeTime(8, 0), now_ns=0)
                yield from inner.do_interruptible(inner_work)

            def interrupt_action(self, exc):
                self.interrupted = True

        outer_work = Outer()

        def script(thread):
            outer = Timed(RelativeTime(2, 0), now_ns=thread.now_ns)
            ok = yield from outer.do_interruptible(outer_work)
            return (ok, thread.now_ns // M)

        results, _ = run_server(zero_vm, script)
        # the outer deadline (2) is the earlier one: the whole nest
        # unwinds; only the *owner's* interrupt_action runs (RTSJ ATC
        # identity), but the inner section's finally blocks still ran
        assert results == [(False, 2)]
        assert outer_work.interrupted
        assert inner_work.interrupted_at is None
        assert inner_work.cleanup_ran

"""Hardened WallClock battery, the driven timer, and the VirtualClock
scheduler's ordering rules and timer lifecycle."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.fabric import FabricStormConfig, ShardKill, run_fabric_storm
from repro.gateway import default_gateway_service_config, run_control_replay
from repro.service import ClockPause, StormConfig, VirtualClock, WallClock
from repro.service.storm import run_service_storm, storm_requests

SCALE = 1e-3  # 1 tu = 1 ms, the deployment convention


async def _until(done, timeout: float = 2.0) -> None:
    """Let the loop run until ``done()`` holds, for at most ``timeout``
    wall seconds."""
    give_up = time.monotonic() + timeout
    while not done() and time.monotonic() < give_up:
        await asyncio.sleep(0.005)


class TestWallClockMapping:
    def test_monotonic_and_scaled(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            first = clock.now()
            await asyncio.sleep(0.03)
            second = clock.now()
            assert second > first
            # 30ms of wall time is 30 tu at 1ms/tu, give or take jitter
            assert 20.0 < second - first < 200.0
            readings = [clock.now() for _ in range(100)]
            assert readings == sorted(readings)

        asyncio.run(scenario())

    def test_start_offset_resumes_logical_timeline(self):
        clock = WallClock(scale=SCALE, start=41.5).anchor()
        assert clock.now() >= 41.5

    def test_anchor_is_idempotent(self):
        clock = WallClock(scale=SCALE)
        clock.anchor()
        origin = clock._origin
        time.sleep(0.005)
        clock.anchor()
        assert clock._origin == origin

    def test_now_anchors_lazily(self):
        clock = WallClock(scale=SCALE, start=3.0)
        assert clock.now() >= 3.0

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            WallClock(scale=0.0)
        with pytest.raises(ValueError):
            WallClock(scale=-1.0)


class TestDrivenTimer:
    """``WallClock.drive``: one loop timer armed for a scheduler's next
    action, advancing the scheduler to wall-clock now when it fires."""

    def test_driven_timer_reaches_its_instant(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            scheduler = VirtualClock(clock.now())
            target = scheduler.now() + 20.0
            fired = []
            scheduler.call_at(
                target, lambda: fired.append((scheduler.now(), clock.now()))
            )
            clock.drive(scheduler, clock.now())
            await _until(lambda: fired)
            clock.stop_driving()
            [(virtual, wall)] = fired
            assert virtual == target       # the action sees its instant
            assert wall >= target - 1e-6   # and never runs early

        asyncio.run(scenario())

    def test_rearms_only_when_the_instant_changes(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            scheduler = VirtualClock(clock.now())
            scheduler.call_at(scheduler.now() + 500.0, lambda: None)
            clock.drive(scheduler, clock.now())
            armed = clock._timer
            scheduler.call_at(scheduler.now() + 600.0, lambda: None)
            clock.drive(scheduler, clock.now())
            assert clock._timer is armed   # same next instant: untouched
            scheduler.call_at(scheduler.now() + 100.0, lambda: None)
            clock.drive(scheduler, clock.now())
            assert clock._timer is not armed and armed.cancelled()
            clock.stop_driving()
            assert clock._timer is None

        asyncio.run(scenario())

    def test_lateness_accounting(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            scheduler = VirtualClock(clock.now())
            fired = []
            scheduler.call_at(scheduler.now() + 1.0, fired.append, True)
            clock.drive(scheduler, clock.now())
            time.sleep(0.05)  # block the loop past the target
            await _until(lambda: fired)
            clock.stop_driving()
            assert fired
            assert clock.late_wakeups >= 1
            assert clock.max_lateness > WallClock.LATENESS_TOLERANCE

        asyncio.run(scenario())


class TestPauseDetection:
    def test_blocked_loop_registers_a_pause(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            seen: list[ClockPause] = []
            clock.on_pause(seen.append)
            clock.start_watchdog(interval=5.0, threshold=20.0)
            await asyncio.sleep(0.02)   # let the watchdog sample once
            time.sleep(0.08)            # stall: 80 tu where ~5 expected
            await asyncio.sleep(0.02)   # watchdog wakes, sees the gap
            clock.stop_watchdog()
            assert clock.pauses
            assert seen == clock.pauses
            pause = clock.pauses[0]
            assert pause.observed > 20.0
            assert pause.expected == 5.0
            assert pause.excess == pause.observed - pause.expected

        asyncio.run(scenario())

    def test_steady_loop_stays_pause_free(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            clock.start_watchdog(interval=5.0, threshold=500.0)
            await asyncio.sleep(0.05)
            clock.stop_watchdog()
            assert clock.pauses == []

        asyncio.run(scenario())

    def test_note_pause_fires_callbacks(self):
        clock = WallClock(scale=SCALE)
        seen = []
        clock.on_pause(seen.append)
        pause = ClockPause(at=10.0, expected=1.0, observed=9.0)
        clock.note_pause(pause)
        assert clock.pauses == [pause]
        assert seen == [pause]

    def test_start_watchdog_is_idempotent(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            first = clock.start_watchdog(interval=5.0)
            second = clock.start_watchdog(interval=5.0)
            assert first is second
            clock.stop_watchdog()

        asyncio.run(scenario())


class TestVirtualAgreement:
    """Scripted actions run by ``advance`` and the same actions driven by
    the wall-clock timer: same order, and wall instants within a jitter
    tolerance of the scripted ones, never before them."""

    SCRIPT = (("a", 10.0), ("b", 25.0), ("c", 25.0), ("d", 40.0))

    def _schedule(self, scheduler: VirtualClock, now) -> list:
        wakes: list[tuple[str, float]] = []
        for name, when in self.SCRIPT:
            scheduler.call_at(
                when, lambda name=name: wakes.append((name, now()))
            )
        return wakes

    def test_wall_clock_agrees_with_virtual_clock(self):
        scheduler = VirtualClock()
        virtual_wakes = self._schedule(scheduler, scheduler.now)
        scheduler.advance(50.0)

        async def wall():
            clock = WallClock(scale=SCALE).anchor()
            scheduler = VirtualClock(clock.start)
            wakes = self._schedule(scheduler, clock.now)
            clock.drive(scheduler, clock.now())
            await _until(lambda: len(wakes) == len(self.SCRIPT))
            clock.stop_driving()
            return wakes

        wall_wakes = asyncio.run(wall())
        assert virtual_wakes == list(self.SCRIPT)
        assert [n for n, _t in wall_wakes] == [n for n, _t in self.SCRIPT]
        for (_name, vt), (_same, wt) in zip(virtual_wakes, wall_wakes):
            # generous bound: CI jitter, not semantics, is the variable
            assert vt - 1e-6 <= wt < vt + 30.0


class TestVirtualClockOrdering:
    """The ordering rules ``advance`` documents."""

    def test_timers_run_in_time_then_registration_order(self):
        clock = VirtualClock()
        ran = []
        for name, when in (("late", 3.0), ("tie-1", 2.0), ("early", 1.0),
                           ("tie-2", 2.0)):
            clock.call_at(when, lambda n=name: ran.append((n, clock.now())))
        clock.advance(5.0)
        assert ran == [("early", 1.0), ("tie-1", 2.0), ("tie-2", 2.0),
                       ("late", 3.0)]
        assert clock.now() == 5.0

    def test_action_queued_outside_advance_runs_at_the_next_timer(self):
        clock = VirtualClock()
        ran = []
        clock.call_at(4.0, lambda: ran.append(("timer", clock.now())))
        clock.call_soon(lambda: ran.append(("queued", clock.now())))
        assert ran == []   # nothing runs outside advance
        clock.advance(6.0)
        # the queued action runs first, at the next live timer's instant
        assert ran == [("queued", 4.0), ("timer", 4.0)]

    def test_action_queued_outside_advance_runs_at_the_target(self):
        clock = VirtualClock()
        ran = []
        clock.call_at(9.0, lambda: ran.append(("timer", clock.now())))
        clock.call_soon(lambda: ran.append(("queued", clock.now())))
        clock.advance(6.0)
        assert ran == [("queued", 6.0)]

    def test_past_instant_joins_the_ready_queue(self):
        clock = VirtualClock(start=5.0)
        ran = []

        def first():
            # a zero or past delay runs at this instant, after this action
            clock.call_at(clock.now() - 1.0, ran.append, clock.now())
            ran.append("first")

        clock.call_at(6.0, first)
        clock.advance(7.0)
        assert ran == ["first", 6.0]

    def test_next_due_reports_the_next_action(self):
        clock = VirtualClock()
        assert clock.next_due() is None
        doomed = clock.call_at(2.0, lambda: None)
        clock.call_at(3.0, lambda: None)
        assert clock.next_due() == 2.0
        doomed.cancel()
        assert clock.next_due() == 3.0   # cancelled timers don't count
        clock.call_soon(lambda: None)
        assert clock.next_due() == clock.now()


class TestVirtualClockSleeperLifecycle:
    """Regression: a timer cancelled while pending must not stall
    ``advance()`` or drag logical time to its abandoned instant."""

    def test_cancelled_sleeper_is_skipped(self):
        clock = VirtualClock()
        woke = []
        doomed = clock.call_at(5.0, woke.append, "doomed")
        clock.call_at(9.0, woke.append, "alive")
        assert clock.pending == 2
        doomed.cancel()
        assert clock.pending == 1  # dead entries don't count
        assert doomed.action is None  # and hold nothing alive
        # a cancelled timer is no instant: a queued action waits past it
        clock.call_soon(lambda: woke.append(clock.now()))
        clock.advance(7.0)
        # the cancelled wake at t=5 was skipped entirely
        assert woke == [7.0]
        assert clock.now() == 7.0
        clock.advance(9.0)
        assert woke == [7.0, "alive"]

    def test_cancel_all_reports_only_live_sleepers(self):
        clock = VirtualClock()
        woke = []
        timers = [clock.call_at(t, woke.append, t) for t in (3.0, 6.0)]
        timers[0].cancel()
        clock.call_soon(woke.append, "queued")
        assert clock.cancel_all() == 2
        assert clock.pending == 0
        clock.advance(10.0)
        assert woke == []

    def test_advance_to_earlier_instant_is_a_noop_for_later_sleepers(self):
        clock = VirtualClock()
        woke = []
        clock.call_at(10.0, woke.append, 10.0)
        clock.advance(4.0)
        assert clock.now() == 4.0
        assert clock.pending == 1
        assert woke == []
        clock.advance(10.0)
        assert woke == [10.0]
        clock.advance(2.0)
        assert clock.now() == 10.0   # time never runs backwards

    def test_settle_outlasts_any_fixed_round_bound(self):
        """A chain of 1,000 actions, each queuing the next, all run at
        their instant before time moves on."""
        clock = VirtualClock()
        seen: list[tuple[float, float]] = []

        def link(n: int, when: float) -> None:
            seen.append((when, clock.now()))
            if n % 2:
                clock.call_soon(link, n + 1, when)
            elif n < 1000:
                clock.call_at(clock.now(), link, n + 1, when)

        for when in (1.0, 2.0):
            clock.call_at(when, link, 1, when)
        clock.advance(3.0)
        assert len(seen) == 2000
        assert seen[:1000] == [(1.0, 1.0)] * 1000
        assert seen[1000:] == [(2.0, 2.0)] * 1000
        assert clock.now() == 3.0


class TestNoEventLoop:
    """Storms, kill drills and control replays are plain loops over the
    scheduler: none of them may start an event loop."""

    @pytest.fixture(autouse=True)
    def _no_event_loops(self, monkeypatch):
        def refuse():
            raise AssertionError("an event loop was started")

        monkeypatch.setattr(asyncio, "new_event_loop", refuse)
        monkeypatch.setattr(asyncio.events, "new_event_loop", refuse)

    def test_service_storm(self):
        assert run_service_storm(StormConfig(seed=5, horizon=60.0)).clean

    def test_fabric_kill_drill(self, tmp_path):
        report = run_fabric_storm(FabricStormConfig(
            shards=3, seed=2, kills=(ShardKill(at=30.0, shard=0),),
            rate=0.8, horizon=60.0, settle=40.0, sources=4,
        ), checkpoint_dir=tmp_path)
        assert report.clean and report.restored == 1

    def test_control_replay(self):
        ops = [
            {"op": "ingest", "t": when, "request": request.to_dict()}
            for when, request in storm_requests(
                StormConfig(seed=5, rate=2.0, horizon=40.0)
            )
        ]
        fates = run_control_replay(ops, default_gateway_service_config())
        assert len(fates) == len(ops)

"""Hardened WallClock battery + VirtualClock sleeper lifecycle (PR 9)."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.service import ClockPause, VirtualClock, WallClock

SCALE = 1e-3  # 1 tu = 1 ms, the deployment convention


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


class TestWallClockSleep:
    def test_zero_and_negative_sleeps_yield_but_return(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            woke = []

            async def peer():
                woke.append(True)

            task = asyncio.create_task(peer())
            before = time.monotonic()
            await clock.sleep_until(clock.now() - 100.0)  # long past
            await clock.sleep(0.0)
            await clock.sleep(-5.0)
            assert time.monotonic() - before < 0.1
            # the zero sleeps yielded: the peer task got to run
            assert woke
            task.cancel()

        asyncio.run(scenario())

    def test_sleep_until_reaches_target(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            target = clock.now() + 20.0
            await clock.sleep_until(target)
            assert clock.now() >= target

        asyncio.run(scenario())

    def test_lateness_accounting(self):
        async def scenario():
            clock = WallClock(scale=SCALE).anchor()
            target = clock.now() + 1.0
            time.sleep(0.05)  # block the loop past the target
            await clock.sleep_until(target)
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
    """The two clocks must agree on a scripted timeline: same wake
    order (modulo ties — equal-instant sleepers may wake in either
    order on a wall clock), and wall wake instants within a jitter
    tolerance."""

    SCRIPT = (("a", 10.0), ("b", 25.0), ("c", 25.0), ("d", 40.0))

    async def _run_script(self, clock) -> list[tuple[str, float]]:
        wakes: list[tuple[str, float]] = []

        async def sleeper(name: str, when: float) -> None:
            await clock.sleep_until(when)
            wakes.append((name, clock.now()))

        tasks = [asyncio.create_task(sleeper(n, w)) for n, w in self.SCRIPT]
        await asyncio.sleep(0)
        if isinstance(clock, VirtualClock):
            await clock.advance(50.0)
        else:
            await clock.sleep_until(50.0)
        await asyncio.gather(*tasks)
        return wakes

    def test_wall_clock_agrees_with_virtual_clock(self):
        async def virtual():
            return await self._run_script(VirtualClock())

        async def wall():
            return await self._run_script(WallClock(scale=SCALE).anchor())

        virtual_wakes = asyncio.run(virtual())
        wall_wakes = asyncio.run(wall())
        scripted = dict(self.SCRIPT)
        # identical order of scripted instants: ties may swap, but a
        # later sleeper never overtakes an earlier one on either clock
        assert [scripted[n] for n, _t in virtual_wakes] == \
               [scripted[n] for n, _t in wall_wakes]
        assert {n for n, _t in virtual_wakes} == {n for n, _t in wall_wakes}
        wall_by_name = dict(wall_wakes)
        for name, vt in virtual_wakes:
            # generous bound: CI jitter, not semantics, is the variable
            assert abs(wall_by_name[name] - vt) < 30.0


class TestVirtualClockSleeperLifecycle:
    """Regression: a sleeper cancelled while suspended must not stall
    ``advance()`` or drag logical time to its abandoned wake instant."""

    def test_cancelled_sleeper_is_skipped(self):
        async def scenario():
            clock = VirtualClock()
            woke = []

            async def sleeper(name: str, when: float) -> None:
                await clock.sleep_until(when)
                woke.append(name)

            doomed = asyncio.create_task(sleeper("doomed", 5.0))
            alive = asyncio.create_task(sleeper("alive", 9.0))
            await asyncio.sleep(0)
            assert clock.pending == 2
            doomed.cancel()
            await asyncio.sleep(0)
            assert clock.pending == 1  # dead entries don't count
            await clock.advance(7.0)
            # the cancelled wake at t=5 was skipped entirely
            assert woke == []
            assert clock.now() == 7.0
            await clock.advance(9.0)
            assert woke == ["alive"]
            await asyncio.gather(doomed, alive, return_exceptions=True)

        asyncio.run(scenario())

    def test_cancel_all_reports_only_live_sleepers(self):
        async def scenario():
            clock = VirtualClock()

            async def sleeper(when: float) -> None:
                await clock.sleep_until(when)

            tasks = [asyncio.create_task(sleeper(t)) for t in (3.0, 6.0)]
            await asyncio.sleep(0)
            tasks[0].cancel()
            await asyncio.sleep(0)
            assert clock.cancel_all() == 1
            assert clock.pending == 0
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run(scenario())

    def test_advance_to_earlier_instant_is_a_noop_for_later_sleepers(self):
        async def scenario():
            clock = VirtualClock()

            async def sleeper(when: float) -> None:
                await clock.sleep_until(when)

            task = asyncio.create_task(sleeper(10.0))
            await asyncio.sleep(0)
            await clock.advance(4.0)
            assert clock.now() == 4.0
            assert clock.pending == 1
            await clock.advance(10.0)
            await task

        asyncio.run(scenario())

    def test_settle_outlasts_any_fixed_round_bound(self):
        """A woken chain may take any number of loop turns to reach its
        next clock await; time must not move under it meanwhile."""
        async def scenario():
            clock = VirtualClock()
            seen: list[float] = []

            async def chain() -> None:
                for when in (1.0, 2.0):
                    await clock.sleep_until(when)
                    for _ in range(1000):
                        await asyncio.sleep(0)
                    seen.append(clock.now())

            task = asyncio.create_task(chain())
            await asyncio.sleep(0)
            await clock.advance(3.0)
            assert seen == [1.0, 2.0]
            assert clock.now() == 3.0
            await task

        asyncio.run(scenario())

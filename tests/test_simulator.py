"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.simulator import (
    COMPACT_MIN_STALE,
    EventHandle,
    SimulationError,
    Simulator,
    Timer,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        for name in "abcde":
            sim.schedule(1.0, log.append, name)
        sim.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]

    def test_run_until_horizon_stops_and_advances_now(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_event_at_exact_horizon_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run(until=5.0)
        assert log == ["edge"]

    def test_max_events_budget(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(float(i + 1), log.append, i)
        processed = sim.run(max_events=4)
        assert processed == 4
        assert log == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestSchedulerContract:
    """What the heap layout must keep: the run's events, their order and the
    live event count are part of every run's result."""

    def test_same_time_ties_fire_in_scheduling_order_across_entry_points(self):
        sim = Simulator()
        log = []

        def spawn():
            # scheduled at the current time from inside a callback: after
            # every tie already queued, in the order they are scheduled
            sim.schedule(0.0, log.append, "d")
            sim.schedule_at(sim.now, log.append, "e")
            sim.schedule(0.0, log.append, "f")

        sim.schedule(1.0, log.append, "a")
        sim.schedule_at(1.0, spawn)
        sim.schedule(1.0, log.append, "b")
        sim.schedule_at(1.0, log.append, "c")
        sim.schedule_at(0.5, log.append, "first")
        sim.run()
        assert log == ["first", "a", "b", "c", "d", "e", "f"]

    def test_mass_cancel_from_callback_compacts_mid_run_without_losing_events(self):
        sim = Simulator()
        fired = []
        compactions = []
        compact = sim._compact

        def counting_compact():
            compactions.append(len(sim._heap))
            compact()

        sim._compact = counting_compact
        doomed = [sim.schedule(50.0 + index, fired.append, ("doomed", index))
                  for index in range(COMPACT_MIN_STALE * 2)]
        survivors = [("survivor", index) for index in range(COMPACT_MIN_STALE // 2)]
        for index, survivor in enumerate(survivors):
            sim.schedule(10.0 + index, fired.append, survivor)

        def cancel_many():
            fired.append("cancel")
            for handle in doomed:
                handle.cancel()
            # scheduled after the rebuild: the run loop must see them
            sim.schedule(1.0, fired.append, "after")
            sim.schedule_at(sim.now, fired.append, "now")

        sim.schedule(1.0, cancel_many)
        sim.run()
        assert compactions, "cancelling from a callback never compacted the heap"
        assert fired == ["cancel", "now", "after"] + survivors
        assert sim.events_processed == len(fired)
        assert sim._stale == 0 and not sim._heap

    def test_events_processed_inside_a_callback_is_the_events_ordinal(self):
        sim = Simulator()
        seen = []
        for index in range(6):
            sim.schedule(1.0 + index, lambda: seen.append(sim.events_processed))
        sim.run(stop_after_events=2)
        sim.run()
        assert seen == list(range(6))

    def test_events_before_a_raising_callback_stay_counted(self):
        sim = Simulator()
        log = []

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(1.0, log.append, 1)
        sim.schedule(2.0, log.append, 2)
        sim.schedule(3.0, boom)
        sim.schedule(4.0, log.append, 4)
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == [1, 2]
        assert sim.events_processed == 2
        # the simulator is usable again and resumes after the failed event
        assert sim.run() == 1
        assert log == [1, 2, 4]
        assert sim.events_processed == 3

    def test_stop_after_zero_events_pauses_before_the_first(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        assert sim.run(until=5.0, stop_after_events=0) == 0
        assert log == []
        assert sim.now == 0.0  # a pause does not jump to the horizon
        assert sim.truncated is None
        assert sim.pending_events == 1
        assert sim.run(until=5.0) == 1
        assert log == ["a"] and sim.now == 5.0

    def test_handles_are_never_compared(self):
        # ties on time are settled by the sequence number, so the heap never
        # falls through to comparing handles (which define no ordering)
        with pytest.raises(TypeError):
            EventHandle(1.0, 1, print, ()) < EventHandle(1.0, 2, print, ())
        sim = Simulator()
        log = []
        for index in range(100):
            sim.schedule(float(index % 3), log.append, index)
        sim.run()
        assert log == sorted(range(100), key=lambda index: (index % 3, index))


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_flag(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        c = Simulator(seed=43).rng.random()
        assert a == b
        assert a != c

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_arbitrary_delays_run_sorted(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run()
        assert fired == sorted(delays)
        assert len(fired) == len(delays)


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert log == [2.0]
        assert not timer.armed

    def test_restart_replaces_previous(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append(sim.now))
        timer.start(2.0)
        timer.start(5.0)
        sim.run()
        assert log == [5.0]

    def test_stop_disarms(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append("fired"))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert log == []

    def test_expiry_reports_absolute_time(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(3.0)
        assert timer.expiry == 3.0
        timer.stop()
        assert timer.expiry is None

    def test_rearm_from_callback(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: None)

        def tick():
            log.append(sim.now)
            if len(log) < 3:
                timer.start(1.0)

        timer._callback = tick
        timer.start(1.0)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

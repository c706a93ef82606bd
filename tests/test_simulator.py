"""Unit tests for the discrete-event scheduler."""

import copy
import pickle

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


class _TimerWorld:
    """A timer deferred while its old entry is still queued; every callback
    is a bound method, so a deep copy carries the whole world."""

    def __init__(self):
        self.sim = Simulator()
        self.log = []
        self.timer = Timer(self.sim, self.expire)
        self.timer.start(1.0)
        self.sim.schedule(0.5, self.rearm, 2.5)  # defers to 3.0; entry stays at 1.0
        self.sim.schedule(3.0, self.note, "tie")
        self.sim.schedule(3.5, self.rearm, 0.5)

    def expire(self):
        self.log.append(("timer", self.sim.now))

    def note(self, tag):
        self.log.append((tag, self.sim.now))

    def rearm(self, delay):
        self.log.append(("rearm", self.sim.now))
        self.timer.start(delay)


class _PostedWorld:
    """Posted hops next to scheduled events and a deferred timer; every
    callback is a bound method, so a deep copy or a pickle carries the
    whole world."""

    def __init__(self):
        self.sim = Simulator()
        self.log = []
        self.timer = Timer(self.sim, self.expire)
        self.timer.start(1.0)
        self.sim.post(0.5, self.hop, 3)
        self.sim.schedule(0.5, self.note, "scheduled")
        self.sim.post(1.0, self.note, "posted")

    def hop(self, left):
        self.log.append(("hop", left, self.sim.now))
        if left:
            self.sim.post(0.25, self.hop, left - 1)
            self.timer.start(1.0)

    def expire(self):
        self.log.append(("timer", self.sim.now))

    def note(self, tag):
        self.log.append((tag, self.sim.now))


class _EagerTimer:
    """Reference timer: every start cancels and schedules anew."""

    def __init__(self, sim, callback):
        self._sim = sim
        self._callback = callback
        self._handle = None

    def start(self, delay):
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self):
        self._handle = None
        self._callback()


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5])
_OPS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 2), _DELAYS),
    st.tuples(st.just("stop"), st.integers(0, 2)),
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("post"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
)


def _play(script, timer_cls):
    """Run ``script``: ``(at, op)`` pairs, applied before the run when ``at``
    is None and from an event at ``at`` otherwise."""
    sim = Simulator()
    log = []
    timers = [
        timer_cls(sim, lambda index=index: log.append(("timer", index, sim.now)))
        for index in range(3)
    ]
    handles = []

    def apply(op):
        kind = op[0]
        if kind == "start":
            timers[op[1]].start(op[2])
        elif kind == "stop":
            timers[op[1]].stop()
        elif kind == "schedule":
            ident = len(handles)
            handles.append(sim.schedule(op[1], lambda: log.append(("event", ident, sim.now))))
        elif kind == "post":
            sim.post(op[1], lambda: log.append(("posted", sim.now)))
        elif op[1] < len(handles):
            handles[op[1]].cancel()

    for at, op in script:
        if at is None:
            apply(op)
        else:
            sim.schedule_at(at, apply, op)
    sim.run()
    return log, sim.events_processed, sim


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
            sim.post(0.0, log.append, "e")
            sim.schedule_at(sim.now, log.append, "f")
            sim.post(0.0, log.append, "g")

        sim.schedule(1.0, log.append, "a")
        sim.schedule_at(1.0, spawn)
        sim.post(1.0, log.append, "b")
        sim.schedule_at(1.0, log.append, "c")
        sim.post(0.5, log.append, "first")
        sim.run()
        assert log == ["first", "a", "b", "c", "d", "e", "f", "g"]

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
            # posted entries interleave with the handles; compaction keeps them
            (sim.post if index % 2 else sim.schedule)(10.0 + index, fired.append, survivor)

        def cancel_many():
            fired.append("cancel")
            for handle in doomed:
                handle.cancel()
            # scheduled after the rebuild: the run loop must see them
            sim.schedule(1.0, fired.append, "after")
            sim.post(1.0, fired.append, "posted")
            sim.schedule_at(sim.now, fired.append, "now")

        sim.schedule(1.0, cancel_many)
        sim.run()
        assert compactions, "cancelling from a callback never compacted the heap"
        assert fired == ["cancel", "now", "after", "posted"] + survivors
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

    # -- handle-free events (Simulator.post) --------------------------------
    def test_posted_events_count_and_stop_at_every_bound(self):
        def world():
            sim = Simulator()
            seen = []
            for index in range(5):
                sim.post(1.0 + index, lambda: seen.append(sim.events_processed))
            return sim, seen

        sim, seen = world()
        assert sim.run(until=3.0) == 3  # the event at the horizon runs
        assert seen == [0, 1, 2] and sim.now == 3.0 and sim.pending_events == 2
        sim, seen = world()
        assert sim.run(max_events=2) == 2
        assert sim.truncated == "max-events" and sim.pending_events == 3
        sim, seen = world()
        assert sim.run(stop_after_events=4) == 4 and sim.truncated is None
        assert sim.run() == 1
        assert seen == [0, 1, 2, 3, 4] and sim.events_processed == 5

    def test_pending_events_counts_posted_entries(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        assert sim.post(3.0, lambda: None) is None
        assert sim.pending_events == 3
        handle.cancel()
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert sim.pending_events == 1

    def test_post_rejects_a_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)
        assert not sim._heap

    @pytest.mark.parametrize(
        "copier",
        [copy.deepcopy, lambda world: pickle.loads(pickle.dumps(world))],
        ids=["deepcopy", "pickle"],
    )
    def test_pause_with_posted_entries_then_resume_a_copy(self, copier):
        reference = _PostedWorld()
        reference.sim.run()
        paused = _PostedWorld()
        assert paused.sim.run(stop_after_events=3) == 3
        assert sum(len(entry) == 4 for entry in paused.sim._heap) == 2
        resumed = copier(paused)
        resumed.sim.run()
        assert resumed.log == reference.log
        assert resumed.sim.events_processed == reference.sim.events_processed == 7
        assert paused.log == reference.log[:3]  # the original stays paused

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

    # -- a timer re-armed later moves in place (Simulator._defer) ----------
    def test_later_rearm_pushes_nothing_and_keeps_the_handle(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        handle, depth = timer._handle, len(sim._heap)
        timer.start(2.0)
        timer.start(2.0)  # the same expiry is "no earlier" too
        assert timer._handle is handle
        assert len(sim._heap) == depth
        assert sim._stale == 0

    def test_rearmed_timer_ties_like_a_fresh_schedule(self):
        sim = Simulator()
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        timer.start(1.0)
        sim.schedule_at(3.0, log.append, "before")
        timer.start(3.0)
        sim.schedule_at(3.0, log.append, "after")
        # and from inside the run: armed at t=3 for 4, re-armed at t=3.5 to 5
        sim.schedule_at(3.0, timer.start, 1.0)
        sim.schedule_at(5.0, log.append, "before-2")
        sim.schedule_at(3.5, timer.start, 1.5)
        sim.schedule_at(3.5, sim.schedule_at, 5.0, log.append, "after-2")
        sim.run()
        assert log == ["before", "timer", "after", "before-2", "timer", "after-2"]
        # nine callbacks fired; moving a deferred entry is not an event
        assert sim.events_processed == 9

    def test_earlier_rearm_fires_at_the_earlier_time(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.schedule(3.0, fired.append, "other")
        timer.start(2.0)
        sim.run()
        assert fired == [2.0, "other"]
        assert sim.events_processed == 2

    def test_stop_after_a_deferred_rearm_leaves_no_stale_count(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(4.0)
        timer.stop()
        assert not timer.armed and sim._stale == 1
        sim.run()
        assert fired == [] and sim.events_processed == 0
        assert sim._stale == 0 and not sim._heap

    def test_accessors_report_the_deferred_expiry(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.start(3.5)
        assert timer.armed
        assert timer.expiry == 3.5
        assert sim.pending_events == 1

    def test_deferred_entry_beyond_the_horizon_stops_at_the_horizon(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(10.0)
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0 and sim.truncated is None
        assert fired == [] and timer.expiry == 10.0
        assert sim.run() == 1
        assert fired == [10.0]

    def test_pause_on_a_deferred_entry_then_resume_a_copy(self):
        reference = _TimerWorld()
        reference.sim.run()
        paused = _TimerWorld()
        assert paused.sim.run(stop_after_events=1) == 1
        when, seq, handle = paused.sim._heap[0]
        assert (when, seq) != (handle.time, handle.seq)  # the lagging entry is on top
        resumed = copy.deepcopy(paused)
        resumed.sim.run()
        assert resumed.log == reference.log
        assert resumed.sim.events_processed == reference.sim.events_processed
        assert paused.log == reference.log[:1]  # the original stays paused

    @given(st.lists(st.tuples(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]), _OPS), max_size=40))
    def test_timers_fire_like_cancel_and_schedule(self, script):
        lazy_log, lazy_events, sim = _play(script, Timer)
        eager_log, eager_events, _ = _play(script, _EagerTimer)
        assert lazy_log == eager_log
        assert lazy_events == eager_events
        assert sim._stale == 0 and not sim._heap


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

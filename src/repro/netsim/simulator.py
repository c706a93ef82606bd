"""Deterministic discrete-event scheduler.

The scheduler is a classic calendar queue built on :mod:`heapq`.  Events fire
in (time, insertion-order) order, so simulations are fully deterministic for a
given seed.  Everything else in the simulator (links, protocol timers,
application behaviour) is expressed as callbacks scheduled here.
"""

from __future__ import annotations

import math
import random
import time
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, List, Optional, Tuple

#: how often (in processed events) the wall-clock watchdog is consulted;
#: checking every event would put a syscall on the scheduler hot path
WALL_CHECK_INTERVAL = 512

#: minimum number of stale (cancelled-but-queued) handles before heap
#: compaction is considered; below this the rebuild costs more than the
#: lazy pops it saves
COMPACT_MIN_STALE = 64

#: stand-in for an unset :meth:`Simulator.run` bound: no time, count or
#: clock reading ever reaches it
_NEVER = math.inf

#: truncation reasons reported via :attr:`Simulator.truncated`
TRUNCATED_MAX_EVENTS = "max-events"
TRUNCATED_WALL_BUDGET = "wall-budget"


class SimulationError(Exception):
    """Raised for invalid scheduler usage (negative delays, running twice, ...)."""


class EventHandle:
    """Handle to a scheduled event, usable to cancel it.

    The heap holds two entry forms, both ordered by ``(time, seq)``:

    * ``(time, seq, handle)`` -- an event :meth:`Simulator.schedule` or
      :meth:`Simulator.schedule_at` made.  Its handle can cancel it or, for
      a :class:`Timer`, move it later.
    * ``(time, seq, fn, args)`` -- an event :meth:`Simulator.post` made:
      link hops, tap and chaos delays, injections.  Nothing refers to it,
      so it cannot be cancelled and carries no handle.

    :mod:`heapq` compares the tuples in C; ``seq`` is unique, so the
    comparison never reaches the handle or the callback.  A handle is
    pending while its ``fn`` is set: firing or cancelling the event clears
    it.

    The handle's own ``(time, seq)`` is the key the event fires at.  A
    queued entry may lag it after :meth:`Simulator._defer` moved the
    handle later; :meth:`Simulator.run` re-queues such an entry under the
    handle's key when it surfaces.

    Cancellation is lazy: the entry stays in the heap but is skipped when it
    surfaces.  This keeps cancellation O(1), which matters because protocols
    stop and re-arm timers on almost every packet.  The owning
    simulator counts cancellations and compacts the heap when too many
    cancelled entries pin slots (see :meth:`Simulator._compact`).
    """

    __slots__ = ("time", "seq", "fn", "args", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once, and
        a no-op once the event has fired (a fired event is no longer in the
        heap, so it must not count as a stale entry)."""
        if self.fn is None:
            return
        self.fn = None
        self.args = ()  # drop references so cancelled timers don't pin objects
        sim = self.sim
        self.sim = None
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        return self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "done"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Events enter through :meth:`schedule`/:meth:`schedule_at`, which return
    a cancellable :class:`EventHandle`, or through :meth:`post`, which
    returns nothing and costs no handle.  Every entry point takes the next
    number of one sequence counter, so same-time events fire in the order
    they were made, whichever entry point made them.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        behaviour in a simulation (probabilistic packet drops, random field
        values for the ``lie`` attack) must draw from :attr:`rng` so runs are
        reproducible.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        #: ``(time, seq, handle)`` and ``(time, seq, fn, args)`` entries (see
        #: :class:`EventHandle`); ``seq`` is unique, so tuple comparison
        #: settles every order in C without reaching the third item
        self._heap: List[Tuple[Any, ...]] = []
        self._seq = 0
        self._stale = 0
        self._running = False
        self._events_processed = 0
        #: cumulative real (wall-clock) seconds spent inside :meth:`run`;
        #: with :attr:`events_processed` this yields events/sec, the
        #: simulator-throughput metric campaigns aggregate
        self.wall_seconds = 0.0
        #: why the most recent :meth:`run` call stopped early
        #: (``"max-events"`` / ``"wall-budget"``), or ``None`` if it ran to
        #: its horizon.  Watchdog callers use this to flag wedged runs.
        self.truncated: Optional[str] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now; it cannot be cancelled.

        The hottest entry point (every link hop), so it builds no handle.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        when = self.now + delay
        self._seq = seq = self._seq + 1
        handle = EventHandle(when, seq, fn, args, self)
        heappush(self._heap, (when, seq, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq = seq = self._seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._stale += 1
        if self._stale > COMPACT_MIN_STALE and self._stale * 2 >= len(self._heap):
            self._compact()

    def _defer(self, handle: EventHandle, time: float) -> None:
        """Move pending ``handle`` to ``time``, no earlier than its own, in place.

        The handle takes the ``(time, seq)`` a fresh :meth:`schedule` would
        take now, without a push: its queued entry keeps the old key, which
        sorts before the new one, and :meth:`run` re-queues it under the new
        key when it surfaces.  Events therefore fire in exactly the order,
        and with exactly the count, of cancelling and scheduling anew.
        """
        self._seq = seq = self._seq + 1
        handle.time = time
        handle.seq = seq

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place; posted entries stay.

        Lazily cancelled retransmit timers pin heap slots until their
        far-future timestamps surface; once they are the majority of the heap
        a linear rebuild is cheaper than lazily popping them one by one.
        Rebuilding preserves the ``(time, seq)`` total order, so determinism
        is unaffected.  The list object itself is kept: compaction runs from
        inside callbacks (a cancel), and :meth:`run` holds the heap in a
        local for the whole loop.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if len(entry) == 4 or entry[2].fn is not None]
        heapify(heap)
        self._stale = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        wall_budget: Optional[float] = None,
        stop_after_events: Optional[int] = None,
    ) -> int:
        """Run events until the horizon, a watchdog budget, or heap exhaustion.

        Returns the number of events processed by this call.  ``until`` is an
        absolute simulated time; events scheduled exactly at the horizon still
        run.  When the horizon is hit, :attr:`now` is advanced to it so that
        measurements taken "at the end of the test" use the full window.

        ``max_events`` caps the number of events this call may process and
        ``wall_budget`` caps its real (wall-clock) runtime in seconds; either
        watchdog firing stops the run early and records the reason in
        :attr:`truncated` (``None`` when the run completed normally).

        ``stop_after_events`` pauses cleanly after this call has processed
        exactly that many events: unlike the watchdogs it does not set
        :attr:`truncated` and does not advance :attr:`now` to the horizon, so
        a later :meth:`run` call resumes mid-simulation with identical
        semantics to never having paused.  The snapshot engine uses this to
        stop a run at a prefix boundary.

        :attr:`events_processed` is updated as each event completes, so a
        callback reading it sees the number of events fired before its own.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self.truncated = None
        started = time.monotonic()
        # every optional bound becomes a local that is never hit when unset,
        # so the loop below tests plain numbers instead of ``None``
        horizon = _NEVER if until is None else until
        pause_at = _NEVER if stop_after_events is None else stop_after_events
        event_cap = _NEVER if max_events is None else max_events
        deadline = _NEVER if wall_budget is None else started + wall_budget
        wall_check_at = _NEVER if wall_budget is None else 0
        heap = self._heap
        pop = heappop
        processed = 0
        paused = False
        try:
            while heap:
                if processed >= pause_at:
                    paused = True
                    break
                entry = heap[0]
                if len(entry) == 4:
                    # posted: nothing can have cancelled or moved it
                    when, _, fn, args = entry
                    event = None
                else:
                    when, seq, event = entry
                    fn = event.fn
                    if fn is None:
                        pop(heap)
                        self._stale -= 1
                        continue
                    if seq != event.seq:
                        # deferred by a later re-arm: re-queue, uncounted
                        heapreplace(heap, (event.time, event.seq, event))
                        continue
                    args = event.args
                if when > horizon:
                    break
                if processed >= event_cap:
                    self.truncated = TRUNCATED_MAX_EVENTS
                    break
                if processed >= wall_check_at:
                    wall_check_at = processed + WALL_CHECK_INTERVAL
                    if time.monotonic() >= deadline:
                        self.truncated = TRUNCATED_WALL_BUDGET
                        break
                pop(heap)
                self.now = when
                if event is not None:
                    event.fn = None  # fired: no longer pending, cancel() is a no-op
                fn(*args)
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
            self.wall_seconds += time.monotonic() - started
        # a truncated (or paused) run did not reach the horizon; leave ``now``
        # where it stopped so callers can see how far the run actually got
        if until is not None and self.now < until and self.truncated is None and not paused:
            self.now = until
        return processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for entry in self._heap if len(entry) == 4 or entry[2].fn is not None)

    @property
    def events_processed(self) -> int:
        return self._events_processed


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Protocol code uses this for retransmission/delayed-ACK/connection timers:
    ``start`` (re)arms it, ``stop`` disarms it, and the callback runs with no
    arguments when it expires.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer"):
        self._sim = sim
        self._callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any prior arming.

        Protocols restart their timers on nearly every packet, almost always
        to a later expiry; a pending handle then moves there in place
        (:meth:`Simulator._defer`) instead of being cancelled and replaced.
        """
        sim = self._sim
        handle = self._handle
        if handle is not None and handle.fn is not None:
            when = sim.now + delay
            if when >= handle.time:
                sim._defer(handle, when)
                return
            handle.cancel()
        self._handle = sim.schedule(delay, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()

    @property
    def armed(self) -> bool:
        handle = self._handle
        return handle is not None and handle.fn is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or ``None`` if disarmed."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timer {self.name} armed={self.armed}>"

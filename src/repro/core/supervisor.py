"""Supervised execution: the hang-proof worker pool with poison quarantine.

:func:`~repro.core.parallel.run_strategies` already isolates *exceptions*
per strategy, and the in-worker watchdog cuts off runs that blow their
simulator budgets — but both only work while the worker's Python loop is
still advancing.  A worker stuck below that layer (wedged in C code,
blocked in pickling, OOM-killed by the kernel) would stall a stock
``multiprocessing.Pool`` forever and deadlock the whole sweep.  Real
stateful-fuzzing harnesses (ProFuzzBench, SNPSFuzzer) treat harness death
as a first-class, supervised event; this module does the same for the
campaign runtime.

:class:`SupervisedWorkerPool` is the only pool: every dispatch in the
runtime goes through it.  It manages its own worker processes over
per-worker duplex pipes, which buys four properties a stock pool cannot
provide:

* **Parent-side deadlines.**  A worker holds one task (one slot) at a
  time and announces a ``start`` heartbeat before executing it; a worker
  whose slot exceeds its wall budget is SIGKILLed from the parent and
  replaced, even if the worker itself can no longer run Python.  The
  budget is ``slot_budget`` when set, otherwise derived from the
  testbed's ``run_budget`` × attempts + grace.
* **Crash detection.**  A worker that dies on its own (OOM kill,
  ``os._exit``, segfault) closes its pipe; the parent notices, respawns,
  and re-dispatches.
* **Slot re-dispatch.**  When a worker is killed or dies, its task is
  requeued, and slot *i* still comes back describing strategy *i*.
* **Poison quarantine.**  A task whose ``start`` arrived before its
  worker died collects a *strike*; a strategy with ``quarantine_after``
  strikes is parked with a structured ``RunError(kind="quarantined")``
  instead of being retried forever.  Quarantine persists for the life of
  the pool, so a strategy quarantined in the sweep is refused by the
  confirm stage too.

Idle workers pull the next task, and the parent hands them out before it
yields replies, so the caller's result hook never holds a worker idle.
A worker serves until the pool closes: it is replaced only when it is
killed or dies.

Workers are spawned lazily on first dispatch with actual work — a
fully-cached campaign never forks — and the pool is shared across the
sweep/confirm stages.  A pool of one worker spawns nothing: it runs each
task in the calling process, so it has no deadlines or kills (and no
fault hook).

Fault hook (test/CI only): setting ``REPRO_TEST_FAULT=hang:<id>`` or
``crash:<id>`` makes workers hang or die whenever they pick up that
strategy id, *below* the in-worker watchdog — exactly the failure mode
this module exists to survive.  ``<id>`` may be ``baseline`` for the
no-strategy run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

from repro.core.executor import RunError, TestbedConfig
from repro.core.parallel import (
    RetryPolicy,
    SlotReply,
    Task,
    _execute_single,
    _worker_init,
    default_worker_count,
)
from repro.fabric.store import FAULT_ENV, fault_hook
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.core.supervisor")

#: structured RunError.kind for strategies parked by the supervisor
KIND_QUARANTINED = "quarantined"

#: slack added per attempt on top of ``run_budget``-derived deadlines,
#: covering testbed setup/teardown outside the simulator loop, seconds
WALL_GRACE = 5.0

#: parent poll granularity for heartbeats/deadlines, seconds
POLL_INTERVAL = 0.05


def _maybe_inject_fault(strategy_id: Optional[int]) -> None:
    """Test-only hook: simulate a worker wedging below the watchdog.

    ``hang`` sleeps far past any budget (the watchdog cannot fire because
    the simulator never starts); ``crash`` exits the process abruptly,
    like an OOM kill.  No-op unless :data:`FAULT_ENV` is set.
    """
    hang, crash = fault_hook("hang"), fault_hook("crash")
    raw = hang if hang is not None else crash
    if raw is None:
        return  # unset, or a fabric-layer fault (see repro.fabric)
    try:
        target: Optional[int] = None if raw == "baseline" else int(raw)
    except ValueError:
        log.warning("ignoring malformed %s=%r", FAULT_ENV, os.environ.get(FAULT_ENV))
        return
    if strategy_id != target:
        return
    if hang is not None:
        time.sleep(3600.0)
    else:
        os._exit(113)


@dataclass(frozen=True)
class SupervisionConfig:
    """How the parent supervises its workers (picklable, spec-embeddable)."""

    #: absolute wall seconds a worker may spend on one slot (all attempts);
    #: ``None`` derives a budget from the testbed's ``run_budget`` instead,
    #: and if that is also unset, hung workers are not deadline-killed
    #: (crash detection still applies)
    slot_budget: Optional[float] = None
    #: strikes (worker kills/deaths while running the strategy) before a
    #: strategy is quarantined
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.slot_budget is not None and self.slot_budget <= 0:
            raise ValueError("slot_budget must be > 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")

    def deadline_for(self, config: TestbedConfig, policy: RetryPolicy) -> Optional[float]:
        """Per-slot wall budget for one task's context (None = no limit)."""
        if self.slot_budget is not None:
            return self.slot_budget
        if config.run_budget is None or config.run_budget <= 0:
            return None
        return (config.run_budget + WALL_GRACE) * (policy.retries + 1)


def _run_task(task: Task) -> SlotReply:
    """Execute one task's slot; a forked worker and a one-worker pool alike."""
    (config, seed, policy, obs, stage, snap), index, strategy = task
    outcome, delta = _execute_single(config, strategy, seed, policy, obs, stage, snap)
    return index, outcome, delta


def _supervised_worker(conn: Any, obs_cfg: Optional[ObsConfig]) -> None:
    """Worker main: pull tasks one at a time, heartbeating before each.

    Protocol (worker -> parent): ``("start", index)`` before the slot runs,
    then ``("reply", (index, outcome, metrics_delta))``.  A ``None`` task
    is the shutdown sentinel.
    """
    _worker_init(obs_cfg)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        _context, index, strategy = task
        conn.send(("start", index))
        _maybe_inject_fault(strategy.strategy_id if strategy is not None else None)
        conn.send(("reply", _run_task(task)))


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "task", "started")

    def __init__(self, process: Any, conn: Any):
        self.process = process
        self.conn = conn
        #: the task the worker holds (None = idle)
        self.task: Optional[Task] = None
        #: monotonic time the task's ``start`` arrived (None = not started)
        self.started: Optional[float] = None


class SupervisedWorkerPool:
    """The worker pool, with parent-side supervision: deadlines, kill +
    respawn, slot re-dispatch and poison-strategy quarantine (see the
    module docstring).  With ``workers <= 1`` it runs tasks in the calling
    process instead.

    Counters (``kills``/``worker_lost``/``respawns``/``redispatched``/
    ``quarantines``) accumulate for the pool's lifetime and are mirrored
    into the metrics registry as ``supervisor.*`` when metrics are
    enabled.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        obs: Optional[ObsConfig] = None,
        supervision: Optional[SupervisionConfig] = None,
    ):
        self.workers = workers if workers is not None else default_worker_count()
        self.obs = obs
        self.supervision = supervision if supervision is not None else SupervisionConfig()
        self._handles: List[_WorkerHandle] = []
        self._ctx: Optional[Any] = None
        #: strategy_id -> fatal strikes (kills/deaths while it was in flight)
        self.strikes: Dict[Optional[int], int] = {}
        #: strategy_id -> strike count at the moment of quarantine
        self.quarantined: Dict[Optional[int], int] = {}
        self.kills = 0
        self.worker_lost = 0
        self.respawns = 0
        self.redispatched = 0
        self.quarantines = 0

    # ------------------------------------------------------------- spawn
    def _context(self) -> Any:
        if self._ctx is None:
            self._ctx = multiprocessing.get_context(
                "fork" if os.name == "posix" else "spawn"
            )
        return self._ctx

    def _spawn(self) -> _WorkerHandle:
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_supervised_worker,
            args=(child_conn, self.obs),
            daemon=True,
        )
        process.start()
        # drop the parent's copy of the child end so a dead worker's pipe
        # reads EOF instead of blocking forever
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _ensure(self) -> None:
        while len(self._handles) < self.workers:
            self._handles.append(self._spawn())

    # ---------------------------------------------------------- dispatch
    def dispatch(self, tasks: Sequence[Task]) -> Iterator[SlotReply]:
        """Run every task under supervision, yielding per-slot replies.

        Replies stream back as slots finish (any worker order); quarantined
        strategies are answered immediately without dispatch.  A one-worker
        pool runs the tasks here, in order, without spawning.
        """
        pending: Deque[Task] = deque()
        for task in tasks:
            _context, index, strategy = task
            sid = strategy.strategy_id if strategy is not None else None
            if sid in self.quarantined:
                yield (index, self._quarantine_error(sid), None)
            else:
                pending.append(task)
        if not pending:
            return
        if self.workers <= 1:
            for task in pending:
                yield _run_task(task)
            return
        self._ensure()
        outstanding = len(pending)
        self._assign(pending)
        while outstanding:
            replies: List[SlotReply] = []
            self._drain(replies, pending, timeout=POLL_INTERVAL)
            self._check_workers(replies, pending)
            # refill before yielding: the caller's result hook (journal
            # fsync, ledger commit) must not hold a worker idle
            self._assign(pending)
            for reply in replies:
                outstanding -= 1
                yield reply

    def _assign(self, pending: Deque[Task]) -> None:
        for handle in self._handles:
            if not pending:
                return
            if handle.task is not None:
                continue
            task = pending.popleft()
            try:
                handle.conn.send(task)
            except (OSError, BrokenPipeError):
                # the worker died while idle; put the task back and let
                # the next drain read its EOF, reap and respawn it
                pending.appendleft(task)
                return
            handle.task = task

    def _drain(
        self, replies: List[SlotReply], pending: Deque[Task], timeout: float
    ) -> None:
        by_conn = {handle.conn: handle for handle in self._handles}
        ready = mp_connection.wait(list(by_conn), timeout=timeout)
        for conn in ready:
            handle = by_conn[conn]
            if handle not in self._handles:
                continue  # reaped earlier in this drain pass
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap(handle, replies, pending, reason="worker-died")
                    break
                except Exception:  # torn pickle from a worker killed mid-send
                    self._reap(handle, replies, pending, reason="pipe-corrupt")
                    break
                if message[0] == "start":
                    handle.started = time.monotonic()
                else:  # ("reply", reply): the worker is idle again
                    handle.task = None
                    handle.started = None
                    replies.append(message[1])

    def _check_workers(
        self, replies: List[SlotReply], pending: Deque[Task]
    ) -> None:
        now = time.monotonic()
        for handle in list(self._handles):
            if not handle.process.is_alive():
                # a dead worker whose pipe still holds data or EOF is left
                # to _drain, which reads its last messages in order: a
                # ``start`` read there strikes the slot it crashed on, and
                # a reply read there is not re-run
                if not handle.conn.poll():
                    self._reap(handle, replies, pending, reason="worker-died")
            elif handle.started is not None:
                config, _seed, policy, _obs, _stage, _snap = handle.task[0]
                deadline = self.supervision.deadline_for(config, policy)
                if deadline is not None and now - handle.started > deadline:
                    self._reap(handle, replies, pending, reason="deadline")

    def _reap(
        self,
        handle: _WorkerHandle,
        replies: List[SlotReply],
        pending: Deque[Task],
        reason: str,
    ) -> None:
        """Kill/bury one worker: strike its task if it started, requeue it."""
        if handle not in self._handles:
            return
        # Classify by *why* we are reaping, not by a racy is_alive() probe:
        # a crashing worker closes its pipe a beat before the process table
        # notices, and must still count as lost, not killed.
        killed = reason == "deadline"
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        handle.conn.close()
        self._handles.remove(handle)
        if killed:
            self.kills += 1
            self._note("supervisor.kills")
        else:
            self.worker_lost += 1
            self._note("supervisor.worker_lost")

        suspect_sid: Optional[int] = None
        task = handle.task
        if task is not None and handle.started is not None:
            # only a slot whose ``start`` arrived takes a strike
            _context, index, strategy = task
            suspect_sid = strategy.strategy_id if strategy is not None else None
            strikes = self.strikes[suspect_sid] = self.strikes.get(suspect_sid, 0) + 1
            if strikes >= self.supervision.quarantine_after:
                self.quarantined[suspect_sid] = strikes
                self.quarantines += 1
                self._note("supervisor.quarantines")
                if BUS.enabled:
                    BUS.emit("supervisor.quarantine", strategy_id=suspect_sid,
                             strikes=strikes, reason=reason)
                log.warning("quarantined strategy %s after %d strike(s)",
                            suspect_sid, strikes)
                replies.append((index, self._quarantine_error(suspect_sid), None))
                task = None
        if task is not None:
            pending.appendleft(task)
            self.redispatched += 1
            self._note("supervisor.redispatched")
        if BUS.enabled:
            BUS.emit("supervisor.kill", reason=reason, strategy_id=suspect_sid,
                     killed=killed)
        log.warning("worker %s (%s); respawning, %d slot(s) redispatched",
                    "killed" if killed else "lost", reason, int(task is not None))
        self._handles.append(self._spawn())
        self.respawns += 1
        self._note("supervisor.respawns")

    def _quarantine_error(self, sid: Optional[int]) -> RunError:
        strikes = self.quarantined.get(sid, self.strikes.get(sid, 0))
        return RunError(
            strategy_id=sid,
            error_type="Quarantined",
            message=(
                f"strategy killed or hung its worker {strikes} time(s); "
                "parked by the supervisor (see docs/robustness.md)"
            ),
            kind=KIND_QUARANTINED,
            attempts=strikes,
        )

    @staticmethod
    def _note(name: str, n: int = 1) -> None:
        if METRICS.enabled:
            METRICS.inc(name, n)

    # ------------------------------------------------------------ teardown
    def invalidate(self) -> None:
        """Kill every worker; quarantine/strike state survives."""
        for handle in self._handles:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join()
            handle.conn.close()
        self._handles = []

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()
            handle.conn.close()
        self._handles = []

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

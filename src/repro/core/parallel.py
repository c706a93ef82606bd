"""Parallel strategy execution (the paper's executor pool).

"SNAKE uses parallelism to run multiple executors concurrently ... this
becomes a highly parallel problem, with linear speedup limited only by the
amount of processing power that can be thrown at the problem."

Strategies and testbed configs are plain dataclasses, so they cross process
boundaries the same way the paper's controller ships strategies to executor
machines over TCP.

Pull dispatch: every pending slot ships as its own :data:`Task` — the
stage's shared (config, seed, retry policy, obs, stage, snapshots) context
plus one strategy — and each idle worker pulls the next task, so no
worker idles while unstarted slots remain, however unevenly their costs
fall.  A snapshot stage sorts its tasks by prefix fingerprint first, so
consecutive pulls share a snapshot.  Every task runs through one pool
type, :class:`~repro.core.supervisor.SupervisedWorkerPool`; a campaign
shares one across its sweep/confirm stages instead of forking a fresh
pool per stage, and a one-worker pool runs its tasks in the calling
process.

Cache front-end: when a :class:`~repro.core.cache.RunCache` is supplied,
every slot is fingerprinted in the parent and looked up *before* dispatch —
a hit costs one file read and zero simulator executions, and fresh clean
results are persisted as they arrive.

This module is also the execution engine of the distributed fabric: a
``repro worker`` (see :mod:`repro.fabric.worker`) decodes each leased work
unit into strategies and runs them through :func:`run_strategies` with a
store-backed cache and its own per-host pool, committing outcomes from the
``on_result`` hook — the same alignment, retry and crash-isolation
guarantees apply per host.

Fault tolerance: a worker never lets an exception escape.  Every slot in the
returned list holds either a :class:`~repro.core.executor.RunResult` or a
structured :class:`~repro.core.executor.RunError` — crashes and watchdog
timeouts are isolated per strategy, retried at once with deterministically
derived seeds, and only then reported as errors.  Results always come back
aligned with the input: slot *i* describes strategy *i*.

Observability: when an :class:`~repro.obs.config.ObsConfig` is supplied,
each worker configures its own process-local event bus (one JSONL trace
file per worker pid in the shared trace directory), wraps every attempt in
a ``run`` span carrying (stage, strategy, attempt, seed), optionally
profiles the attempt with cProfile, and ships its per-run metrics delta
back alongside the outcome so the parent merges one campaign-wide registry.
The parent additionally records ``cache.*`` counters and the
``dispatch.batches`` count of tasks shipped.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cache import RunCache, run_fingerprint
from repro.core.executor import Executor, RunError, RunOutcome, RunResult, TestbedConfig
from repro.core.generation import prefix_sort_key
from repro.core.strategy import Strategy
from repro.obs.bus import BUS
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS
from repro.obs.profiling import profile_run
from repro.snap.config import SnapshotConfig

if TYPE_CHECKING:
    from repro.core.supervisor import SupervisedWorkerPool

log = logging.getLogger("repro.core.parallel")


def derive_seed(base_seed: int, strategy_id: Optional[int], attempt: int) -> int:
    """Deterministic per-(strategy, attempt) retry seed.

    Attempt 0 always uses ``base_seed`` itself (preserving the historical
    single-attempt behaviour); retries hash (base seed, strategy id, attempt)
    so re-running a campaign replays the exact same seed sequence.
    """
    if attempt == 0:
        return base_seed
    key = f"{base_seed}:{strategy_id}:{attempt}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed/timed-out runs are retried before becoming errors.

    A retry re-runs a deterministic simulation under a derived seed, so
    it starts at once: there is nothing to wait for.
    """

    retries: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


#: everything identical across one stage's runs, shipped with every task
TaskContext = Tuple[
    TestbedConfig, Optional[int], RetryPolicy, Optional[ObsConfig], str,
    Optional[SnapshotConfig],
]

#: one worker round-trip: (shared context, result index, strategy)
Task = Tuple[TaskContext, int, Optional[Strategy]]

#: per-slot worker reply: (index, outcome, metrics delta or None)
SlotReply = Tuple[int, RunOutcome, Optional[Dict[str, Any]]]

#: invoked in the parent as each slot finishes: (index, outcome)
ResultHook = Callable[[int, RunOutcome], None]


def run_id_for(stage: str, strategy_id: Optional[int], attempt: int) -> str:
    """Trace/profile identity of one run attempt (stable and filename-safe)."""
    sid = "none" if strategy_id is None else str(strategy_id)
    return f"{stage}-{sid}-a{attempt}"


def _worker_init(obs_cfg: Optional[ObsConfig]) -> None:
    """Worker initializer: give every fresh worker a clean telemetry slate.

    Forked workers inherit the parent's registry — baseline counts before
    the sweep pool, merged sweep totals before the confirm pool — and an
    inherited ``_APPLIED`` makes ``configure_observability`` keep it (it
    only sets the registry's ``enabled`` flag again), so without this
    reset each worker's first metrics delta would re-ship the inherited
    counts and the parent would double-count them on merge.
    (The in-process path is immune: there the parent's own
    ``snapshot_and_reset`` removes exactly what the merge puts back.)
    """
    if obs_cfg is not None:
        configure_observability(obs_cfg)
    METRICS.reset()


def _execute_single(
    config: TestbedConfig,
    strategy: Optional[Strategy],
    seed: Optional[int],
    policy: RetryPolicy,
    obs_cfg: Optional[ObsConfig],
    stage: str,
    snap: Optional[SnapshotConfig] = None,
) -> Tuple[RunOutcome, Optional[Dict[str, Any]]]:
    """Run one strategy with retries; must never raise.

    Returns the outcome and, with metrics on, this slot's metrics delta,
    which includes its ``dispatch.latency_seconds`` sample.
    """
    slot_t0 = time.perf_counter()
    if obs_cfg is not None:
        # (re)configure this process; forked workers inherit the parent's
        # bus/registry, spawned workers start cold — both end up identical.
        # obs_cfg=None deliberately leaves any caller-managed setup alone.
        configure_observability(obs_cfg)
    strategy_id = strategy.strategy_id if strategy is not None else None
    base_seed = config.seed if seed is None else seed
    profile_dir = obs_cfg.profile_dir if obs_cfg is not None else None
    seeds_tried: List[int] = []
    failure: Optional[RunError] = None
    outcome: Optional[RunOutcome] = None
    for attempt in range(policy.retries + 1):
        attempt_seed = derive_seed(base_seed, strategy_id, attempt)
        seeds_tried.append(attempt_seed)
        if attempt > 0 and METRICS.enabled:
            METRICS.inc("runs.retries")
        run_id = run_id_for(stage, strategy_id, attempt)
        attempt_t0 = time.perf_counter()
        with BUS.scope(stage=stage, strategy_id=strategy_id, attempt=attempt, seed=attempt_seed):
            try:
                with BUS.span("run"), profile_run(profile_dir, run_id):
                    # eligible first attempts fork from a shared prefix
                    # snapshot; everything else executes in full.  Imported
                    # here (not at module scope) because repro.snap.engine
                    # imports repro.core submodules.
                    from repro.snap.engine import execute_run as snap_execute_run

                    result = snap_execute_run(config, strategy, attempt_seed, attempt, snap)
                    if result is None:
                        result = Executor(config).run(strategy, seed=attempt_seed)
            except Exception as exc:
                if METRICS.enabled:
                    METRICS.inc("runs.failed")
                BUS.emit("run.error", error_type=type(exc).__name__, message=str(exc))
                failure = RunError(
                    strategy_id=strategy_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback_summary=traceback.format_exc(limit=8),
                    kind="crash",
                    run_id=run_id,
                    wall_seconds=time.perf_counter() - attempt_t0,
                )
                continue
        if result.timed_out:
            failure = RunError(
                strategy_id=strategy_id,
                error_type="Timeout",
                message=(
                    f"simulation cut off by {result.truncated} watchdog "
                    f"after {result.events_processed} events"
                ),
                kind="timeout",
                timed_out=True,
                run_id=run_id,
                wall_seconds=result.wall_seconds,
            )
            continue
        result.attempts = attempt + 1
        result.run_id = run_id
        outcome = result
        break
    if outcome is None:
        assert failure is not None
        failure.attempts = len(seeds_tried)
        failure.seeds = tuple(seeds_tried)
        outcome = failure
    if not METRICS.enabled:
        return outcome, None
    METRICS.histogram("dispatch.latency_seconds").observe(time.perf_counter() - slot_t0)
    return outcome, METRICS.snapshot_and_reset()


def default_worker_count() -> int:
    """The paper ran one executor per six hyperthreads; simulator runs are
    pure CPU, so we default to cpu_count - 1 (min 1)."""
    return max(1, (os.cpu_count() or 2) - 1)


def run_strategies(
    config: TestbedConfig,
    strategies: Sequence[Optional[Strategy]],
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    retries: int = 0,
    on_result: Optional[ResultHook] = None,
    obs: Optional[ObsConfig] = None,
    stage: str = "sweep",
    cache: Optional[RunCache] = None,
    pool: Optional["SupervisedWorkerPool"] = None,
    snapshots: Optional[SnapshotConfig] = None,
) -> List[RunOutcome]:
    """Run every strategy through ``pool.dispatch``.

    Results come back in input order, one outcome per input slot: a
    :class:`RunResult` on success, a :class:`RunError` placeholder when the
    run crashed or timed out ``retries + 1`` times.  ``progress(done,
    total)`` and ``on_result(index, outcome)`` are invoked from the parent
    as outcomes arrive — the latter is the checkpoint-journal hook, and it
    fires for cache hits too so a journal stays self-contained.  An
    exception from ``on_result`` (a failed journal fsync or ledger commit)
    invalidates the pool and propagates; only a failure of the pool itself
    leaves unfilled slots as ``RunError(kind="worker-lost")``.

    Every pending slot ships as its own task, and each idle worker pulls
    the next one.  ``pool`` reuses a caller-owned
    :class:`~repro.core.supervisor.SupervisedWorkerPool` across stages;
    without one a transient pool of ``workers`` is created and torn down
    here; a one-worker pool runs the tasks in this process.  ``cache``
    short-circuits any slot whose fingerprint is already on disk and
    persists fresh clean results.

    ``obs`` switches on per-worker tracing/metrics/profiling; worker
    metrics deltas are merged into the parent's registry as they arrive, so
    after this returns the process-wide registry covers the whole stage.
    ``stage`` labels the trace records ("sweep" / "confirm" / ...).

    ``snapshots`` (a :class:`~repro.snap.SnapshotConfig` with ``enabled``)
    turns on the snapshot/fork engine: pending tasks are sorted by prefix
    fingerprint, and eligible first attempts fork from a deep-copied prefix
    snapshot inside each worker (see :mod:`repro.snap`).
    """
    policy = RetryPolicy(retries=retries)
    snap = snapshots if snapshots is not None and snapshots.enabled else None
    context: TaskContext = (config, seed, policy, obs, stage, snap)
    total = len(strategies)
    results: List[Optional[RunOutcome]] = [None] * total
    done_count = 0

    def finish(index: int, outcome: RunOutcome) -> None:
        nonlocal done_count
        results[index] = outcome
        done_count += 1
        if on_result is not None:
            on_result(index, outcome)
        if progress is not None:
            progress(done_count, total)

    # ------------------------------------------------------------- cache
    fingerprints: List[Optional[str]] = [None] * total
    pending: List[Task] = []
    for i, strategy in enumerate(strategies):
        if cache is not None:
            fingerprint = run_fingerprint(config, strategy, seed)
            fingerprints[i] = fingerprint
            hit = cache.get(fingerprint)
            if hit is not None:
                # ids are enumeration-order artifacts; re-stamp the current one
                hit.strategy_id = strategy.strategy_id if strategy is not None else None
                finish(i, hit)
                continue
        pending.append((context, i, strategy))
    if cache is not None and total:
        log.info("cache: %d hit(s), %d pending of %d (stage=%s)",
                 total - len(pending), len(pending), total, stage)

    def absorb(reply: SlotReply) -> None:
        index, outcome, delta = reply
        if delta is not None:
            METRICS.merge(delta)
        if cache is not None and fingerprints[index] is not None:
            cache.put(fingerprints[index], outcome)
        finish(index, outcome)

    # ------------------------------------------------------------- tasks
    if snap is not None and len(pending) > 1:
        # consecutive pulls share a prefix fingerprint, so each worker's
        # snapshot LRU stays warm on long sweeps; results realign by slot
        # index, so reordering dispatch is free
        pending.sort(key=lambda task: (prefix_sort_key(task[2]), task[1]))
    if METRICS.enabled and pending:
        METRICS.inc("dispatch.batches", len(pending))
    owns_pool = pool is None
    if pool is None:
        # imported here: repro.core.supervisor imports this module
        from repro.core.supervisor import SupervisedWorkerPool

        pool = SupervisedWorkerPool(workers=workers, obs=obs)
    try:
        log.info("running %d strategies on %d workers (stage=%s)",
                 len(pending), pool.workers, stage)
        pool_error: Optional[BaseException] = None
        replies = pool.dispatch(pending)
        while True:
            try:
                reply = next(replies, None)
            except Exception as exc:
                if pool.workers <= 1:
                    raise  # in-process: no worker was lost
                # pool-level failure (e.g. a worker could not be spawned)
                pool_error = exc
                log.warning("worker pool failed: %s", exc)
                pool.invalidate()
                break
            if reply is None:
                break
            try:
                absorb(reply)
            except BaseException:
                # the parent failed to take the reply (the result hook's
                # journal fsync or ledger commit, a cache write): kill the
                # workers so no in-flight reply is left for a later
                # dispatch to read, then fail the stage
                pool.invalidate()
                raise
        # Never drop a slot: any slot the pool failed to fill becomes an
        # in-slot error so downstream zip(strategies, results) stays aligned.
        # These placeholders are deliberately NOT passed to ``on_result`` — they
        # were never executed, so a resumed campaign should re-run them.
        for i, slot in enumerate(results):
            if slot is None:
                strategy = strategies[i]
                results[i] = RunError(
                    strategy_id=strategy.strategy_id if strategy is not None else None,
                    error_type="WorkerLost" if pool_error is None else type(pool_error).__name__,
                    message=(
                        "worker pool returned no result for this strategy"
                        if pool_error is None
                        else f"worker pool failed: {pool_error}"
                    ),
                    kind="worker-lost",
                )
        return results  # type: ignore[return-value]
    finally:
        if owns_pool:
            pool.close()

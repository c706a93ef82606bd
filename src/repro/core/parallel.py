"""Parallel strategy execution (the paper's executor pool).

"SNAKE uses parallelism to run multiple executors concurrently ... this
becomes a highly parallel problem, with linear speedup limited only by the
amount of processing power that can be thrown at the problem."

Strategies and testbed configs are plain dataclasses, so they cross process
boundaries the same way the paper's controller ships strategies to executor
machines over TCP.

Batched dispatch: work is shipped as :data:`WorkBatch` payloads — one
shared (config, seed, retry policy, obs, stage) context plus a tuple of
at most ``batch_size`` strategy slots — so a worker round-trip amortizes
pickling and IPC over N runs instead of paying it per strategy, while a
dispatch with fewer than ``workers * batch_size`` slots is still spread
over every worker.  Every batch runs through one pool type,
:class:`~repro.core.supervisor.SupervisedWorkerPool`; a campaign shares
one across its sweep/confirm stages instead of forking a fresh pool per
stage, and a one-worker pool runs its batches in the calling process.

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
timeouts are isolated per strategy, retried with deterministically derived
seeds (plus optional backoff), and only then reported as errors.  Results
always come back aligned with the input: slot *i* describes strategy *i*.

Observability: when an :class:`~repro.obs.config.ObsConfig` is supplied,
each worker configures its own process-local event bus (one JSONL trace
file per worker pid in the shared trace directory), wraps every attempt in
a ``run`` span carrying (stage, strategy, attempt, seed), optionally
profiles the attempt with cProfile, and ships its per-run metrics delta
back alongside the outcome so the parent merges one campaign-wide registry.
The parent additionally records ``cache.*`` counters and the
``dispatch.batch_size`` histogram.
"""

from __future__ import annotations

import hashlib
import logging
import math
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
from repro.obs.metrics import BATCH_BUCKETS, METRICS, merge_snapshots
from repro.obs.profiling import profile_run
from repro.snap.config import SnapshotConfig

if TYPE_CHECKING:
    from repro.core.supervisor import SupervisedWorkerPool

log = logging.getLogger("repro.core.parallel")

#: strategies shipped per worker round-trip by default
DEFAULT_BATCH_SIZE = 8


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
    """How failed/timed-out runs are retried before becoming errors."""

    retries: int = 0
    #: base sleep before retry attempt N, doubled each further attempt
    backoff: float = 0.0

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (attempt >= 1)."""
        if self.backoff <= 0 or attempt <= 0:
            return 0.0
        return self.backoff * (2 ** (attempt - 1))


#: everything identical across one stage's runs, shipped once per batch
BatchContext = Tuple[
    TestbedConfig, Optional[int], RetryPolicy, Optional[ObsConfig], str,
    Optional[SnapshotConfig],
]

#: one strategy slot inside a batch: (result index, strategy)
BatchSlot = Tuple[int, Optional[Strategy]]

#: one worker round-trip: shared context + the slots it executes serially
WorkBatch = Tuple[BatchContext, Tuple[BatchSlot, ...]]

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
    inherited ``_APPLIED`` makes ``configure_observability`` a no-op, so
    without this reset each worker's first metrics delta would re-ship the
    inherited counts and the parent would double-count them on merge.
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
    """Run one strategy with retries; must never raise."""
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
        if attempt > 0:
            if METRICS.enabled:
                METRICS.inc("runs.retries")
            pause = policy.backoff_for(attempt)
            if pause > 0:
                time.sleep(pause)
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
    delta = METRICS.snapshot_and_reset() if METRICS.enabled else None
    return outcome, delta


def fold_batch_latency(
    delta: Optional[Dict[str, Any]], elapsed: float
) -> Optional[Dict[str, Any]]:
    """Observe one batch's wall time as ``dispatch.latency_seconds`` and
    fold the observation into the batch's final metrics delta.

    Runs right after the last slot's ``snapshot_and_reset``, so the
    registry contribution is exactly this one histogram sample; merging it
    into the last reply's delta ships it to the parent over the existing
    per-slot channel — no protocol change, and in-process and forked
    batches report the same metric.
    """
    if not METRICS.enabled:
        return delta
    METRICS.histogram("dispatch.latency_seconds").observe(elapsed)
    extra = METRICS.snapshot_and_reset()
    if delta is None:
        return extra
    return merge_snapshots((delta, extra))


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
    batch_size: int = DEFAULT_BATCH_SIZE,
    retries: int = 0,
    retry_backoff: float = 0.0,
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
    fires for cache hits too so a journal stays self-contained.

    Up to ``batch_size`` strategies share one worker round-trip; a dispatch
    smaller than ``pool.workers * batch_size`` is split evenly across the
    workers instead.  ``pool`` reuses a caller-owned
    :class:`~repro.core.supervisor.SupervisedWorkerPool` across stages;
    without one a transient pool of ``workers`` is created and torn down
    here; a one-worker pool runs the batches in this process.  ``cache``
    short-circuits any slot whose fingerprint is already on disk and
    persists fresh clean results.

    ``obs`` switches on per-worker tracing/metrics/profiling; worker
    metrics deltas are merged into the parent's registry as they arrive, so
    after this returns the process-wide registry covers the whole stage.
    ``stage`` labels the trace records ("sweep" / "confirm" / ...).

    ``snapshots`` (a :class:`~repro.snap.SnapshotConfig` with ``enabled``)
    turns on the snapshot/fork engine: pending slots are grouped by prefix
    fingerprint before batching and eligible first attempts fork from a
    deep-copied prefix snapshot inside each worker (see :mod:`repro.snap`).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    policy = RetryPolicy(retries=retries, backoff=retry_backoff)
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
    pending: List[BatchSlot] = []
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
        pending.append((i, strategy))
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

    # ------------------------------------------------------------ batches
    snap = snapshots if snapshots is not None and snapshots.enabled else None
    if snap is not None and len(pending) > 1:
        # cluster slots sharing a prefix fingerprint into the same batches
        # so each worker's snapshot LRU serves whole runs of forks; results
        # realign by slot index, so reordering dispatch is free
        pending.sort(key=lambda slot: (prefix_sort_key(slot[1]), slot[0]))
    owns_pool = pool is None
    if pool is None:
        # imported here: repro.core.supervisor imports this module
        from repro.core.supervisor import SupervisedWorkerPool

        pool = SupervisedWorkerPool(workers=workers, obs=obs)
    # batch_size is an upper bound: a dispatch too small to give every
    # worker a full batch is split evenly instead, so no worker idles
    # while another runs a whole batch (with one worker this is a no-op)
    size = max(1, min(batch_size, math.ceil(len(pending) / pool.workers)))
    context: BatchContext = (config, seed, policy, obs, stage, snap)
    batches: List[WorkBatch] = [
        (context, tuple(pending[lo : lo + size])) for lo in range(0, len(pending), size)
    ]
    if METRICS.enabled:
        for _, slots in batches:
            METRICS.inc("dispatch.batches")
            METRICS.histogram("dispatch.batch_size", BATCH_BUCKETS).observe(len(slots))
    try:
        log.info("running %d strategies on %d workers in %d batch(es) of <=%d (stage=%s)",
                 len(pending), pool.workers, len(batches), size, stage)
        pool_error: Optional[BaseException] = None
        try:
            for reply in pool.dispatch(batches):
                absorb(reply)
        except Exception as exc:
            if pool.workers <= 1:
                raise  # in-process: no worker was lost, a result hook failed
            # pool-level failure (e.g. a worker could not be spawned)
            pool_error = exc
            log.warning("worker pool failed: %s", exc)
            pool.invalidate()
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

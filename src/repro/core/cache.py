"""Content-addressed run cache: never simulate the same run twice.

The sweep's cost is dominated by simulator executions, and campaigns
repeat them constantly — the confirm stage re-runs flagged strategies, a
re-launched campaign re-runs everything, and A/B experiments re-run the
unchanged arm.  Because the simulator is fully deterministic per seed, a
completed :class:`~repro.core.executor.RunResult` is a pure function of
(strategy behaviour, testbed config, seed).  This module fingerprints that
triple and persists results on disk so any later campaign — baseline,
sweep, confirm, or a whole repeat — skips simulations it has already paid
for (the snapshot-reuse idea SNPSFuzzer applies to process state, applied
here at run granularity).

Fingerprint rules
-----------------
* ``run_fingerprint(config, strategy, seed)`` hashes the canonical JSON of
  ``{config.to_dict(), strategy.canonical_form(), seed}`` with BLAKE2b.
  ``strategy_id`` is deliberately excluded: ids depend on enumeration
  order, behaviour does not.
* The config's and the strategy's canonical JSON are built once per
  instance and reused by every fingerprint (and, for strategies, by
  deduplication); ``TestbedConfig`` and its ``ChaosConfig`` are frozen so
  that memo cannot go stale.  It is kept on the instance, never keyed by
  value, because equal values can encode differently (``10 == 10.0``).
* ``CACHE_VERSION`` is part of every fingerprint, and the fingerprint does
  not cover the simulator's code: a change that alters a run's outcome
  must bump it, or a warm cache serves the old result.
  ``tests/test_run_digests.py --write`` refuses to record such a change
  without the bump.
* Only clean first-attempt successes are cached (``attempts == 1`` and not
  ``timed_out``): those are exactly the runs determinism guarantees will
  repeat, independent of the campaign's retry policy.  Crashes, timeouts
  and retried successes always re-execute.
* A campaign's identity is :meth:`repro.api.CampaignSpec.fingerprint`,
  the same digest over the spec's outcome-affecting fields.

Storage: entries live in an :class:`~repro.fabric.store.ArtifactStore`
under the ``runs`` namespace — by default the sharded local-dir backend
(``<cache_dir>/runs/<fp[:2]>/<fp>.json``, one atomically-written JSON
document per run, sharded two hex chars deep so a million-entry cache
does not melt one directory), but any store works, which is how the
distributed fabric shares one cache across worker hosts through its
``dir://`` store.
A corrupt entry (torn write, hand edit) is treated as a miss, counted
under ``cache.corrupt`` by whichever process actually deletes it, and
removed so it cannot poison later campaigns.
"""

from __future__ import annotations

import json
import logging
from hashlib import blake2b
from typing import Any, Dict, Optional, Union

from repro.core.executor import RunResult, TestbedConfig
from repro.core.strategy import Strategy, canonical_json
from repro.fabric.store import ArtifactStore, LocalDirStore, StoreCorrupt
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.core.cache")

#: bump when a run's outcome or RunResult's meaning changes (old entries then miss)
CACHE_VERSION = 1


def _digest(payload: Dict[str, Any]) -> str:
    return blake2b(canonical_json(payload).encode(), digest_size=16).hexdigest()


def run_fingerprint(
    config: TestbedConfig, strategy: Optional[Strategy], seed: Optional[int]
) -> str:
    """Identity of one simulation run (strategy ``None`` = baseline run).

    ``seed=None`` normalizes to ``config.seed`` — the executor's own
    default — so explicit and implicit spellings of the same run collide.

    Hashes ``canonical_json({"v": CACHE_VERSION, "config": config.to_dict(),
    "strategy": strategy.canonical_form(), "seed": seed})``, splicing in
    the config's and the strategy's memoised ``canonical_key`` at their
    sorted-key places.
    """
    document = '{"config":%s,"seed":%s,"strategy":%s,"v":%d}' % (
        config.canonical_key,
        json.dumps(config.seed if seed is None else seed),
        "null" if strategy is None else strategy.canonical_key,
        CACHE_VERSION,
    )
    return blake2b(document.encode(), digest_size=16).hexdigest()


class RunCache:
    """Store-backed map from run fingerprint to :class:`RunResult`.

    Used from the parent process only: the controller/pool front-end looks
    runs up before dispatching work, so a hit costs one small store read
    and zero IPC.  Safe for concurrent campaigns sharing a store — writes
    are atomic and readers tolerate torn entries, with the delete (and its
    ``cache.corrupt`` count) attributed to exactly one of any racing
    cleaners.

    Construct with a directory path (the classic local cache) or any
    :class:`~repro.fabric.store.ArtifactStore` (how fabric workers share a
    cache through the campaign's store).
    """

    NAMESPACE = "runs"

    def __init__(self, store: Union[str, ArtifactStore]):
        if isinstance(store, str):
            self.root: Optional[str] = store
            self.store: ArtifactStore = LocalDirStore(store)
        else:
            self.root = getattr(store, "root", None)
            self.store = store

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> str:
        """On-disk path of one entry (local-dir backends only)."""
        path_for = getattr(self.store, "path_for", None)
        if path_for is None:
            raise TypeError(f"{type(self.store).__name__} entries have no filesystem path")
        return path_for(self.NAMESPACE, fingerprint)

    @staticmethod
    def cacheable(outcome: object) -> bool:
        """Only clean first-attempt successes may enter the cache."""
        return (
            isinstance(outcome, RunResult)
            and outcome.attempts == 1
            and not outcome.timed_out
        )

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[RunResult]:
        """Return the cached result, or ``None`` (miss / corrupt entry)."""
        try:
            entry = self.store.get(self.NAMESPACE, fingerprint)
            if entry is None:
                if METRICS.enabled:
                    METRICS.inc("cache.misses")
                return None
            if entry.get("fingerprint") != fingerprint or "outcome" not in entry:
                raise ValueError("entry does not describe this fingerprint")
            result = RunResult.from_dict(entry["outcome"])
        except OSError as exc:
            # a failed read says nothing about the entry: a miss, entry kept
            log.warning("cache read of %s failed: %s", fingerprint, exc)
            if METRICS.enabled:
                METRICS.inc("cache.misses")
            return None
        except (StoreCorrupt, ValueError, TypeError, KeyError) as exc:
            log.warning("dropping corrupt cache entry %s: %s", fingerprint, exc)
            if METRICS.enabled:
                METRICS.inc("cache.misses")
            # Concurrent cleaners race here: delete() never raises on a
            # missing entry, and only the caller that actually removed it
            # counts the corruption — once, total, across all processes.
            try:
                if self.store.delete(self.NAMESPACE, fingerprint) and METRICS.enabled:
                    METRICS.inc("cache.corrupt")
            except OSError as error:
                # a failed cleanup is still a miss; the entry stays for
                # a later reader to drop
                log.warning("cannot drop cache entry %s: %s", fingerprint, error)
            return None
        result.cached = True
        if METRICS.enabled:
            METRICS.inc("cache.hits")
        return result

    def put(self, fingerprint: str, outcome: object) -> bool:
        """Persist a cacheable outcome; returns whether it was stored."""
        if not self.cacheable(outcome):
            return False
        assert isinstance(outcome, RunResult)
        payload = outcome.to_dict()
        payload["cached"] = False  # restored copies re-mark themselves
        try:
            self.store.put(
                self.NAMESPACE, fingerprint, {"fingerprint": fingerprint, "outcome": payload}
            )
        except OSError:
            return False
        if METRICS.enabled:
            METRICS.inc("cache.stores")
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store.keys(self.NAMESPACE))

"""Exactly-once result accounting keyed by run fingerprint.

The ledger is the fabric's source of truth for *what has been computed*.
Every finished run is committed under ``(stage, run_fingerprint)`` with
:meth:`~repro.fabric.store.ArtifactStore.put_if_absent` — an atomic
create — so of all the workers that might execute the same run (a
reclaimed lease racing its not-quite-dead previous owner, a worker that
crashed after executing but whose unit was re-dispatched), exactly one
commit lands.  Later commits are *duplicates*: counted, traced, and
dropped.  Execution may happen twice; accounting never does.

The checkpoint journal stays downstream: only the coordinator reads the
ledger and appends to the journal, so journal entries inherit the
ledger's exactly-once property without any cross-process journal locking.
"""

from __future__ import annotations

from typing import Optional

from repro.core.checkpoint import decode_outcome, encode_outcome
from repro.core.executor import RunOutcome
from repro.fabric.store import ArtifactStore, StoreCorrupt
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS

NS_RESULTS = "results"


def result_key(stage: str, fingerprint: str) -> str:
    return f"{stage}-{fingerprint}"


class ResultLedger:
    """Idempotent run-outcome commits on a shared artifact store."""

    def __init__(self, store: ArtifactStore):
        self.store = store
        self.commits = 0
        self.duplicates = 0

    def commit(self, stage: str, fingerprint: str, outcome: RunOutcome) -> bool:
        """Record one outcome; ``True`` iff this commit was the first."""
        record = encode_outcome(stage, outcome)
        record["fingerprint"] = fingerprint
        created = self.store.put_if_absent(NS_RESULTS, result_key(stage, fingerprint), record)
        if created:
            self.commits += 1
            METRICS.inc("fabric.commits.new")
        else:
            self.duplicates += 1
            METRICS.inc("fabric.commits.duplicate")
            BUS.emit("fabric.commit.duplicate", stage=stage, fingerprint=fingerprint)
        return created

    def fetch(self, stage: str, fingerprint: str) -> Optional[RunOutcome]:
        """The committed outcome, or ``None`` if absent or unreadable.

        A torn/corrupt record is deleted so the owning unit can be
        reopened and recomputed — a half-written result is a missing
        result, not a poisoned campaign.
        """
        key = result_key(stage, fingerprint)
        try:
            record = self.store.get(NS_RESULTS, key)
        except StoreCorrupt:
            self.store.delete(NS_RESULTS, key)
            METRICS.inc("fabric.results.corrupt")
            BUS.emit("fabric.result.corrupt", stage=stage, fingerprint=fingerprint)
            return None
        if record is None:
            return None
        try:
            outcome = decode_outcome(record)
        except (KeyError, TypeError, ValueError):
            self.store.delete(NS_RESULTS, key)
            METRICS.inc("fabric.results.corrupt")
            BUS.emit("fabric.result.corrupt", stage=stage, fingerprint=fingerprint)
            return None
        return outcome

    def committed_count(self) -> int:
        """Number of results committed to the store (readable or not)."""
        return len(self.store.keys(NS_RESULTS))


__all__ = ["NS_RESULTS", "ResultLedger", "result_key"]

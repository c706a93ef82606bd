"""TTL work leases over the artifact store: sharding a sweep crash-safely.

A sweep stage is split into *units* (a handful of strategies sharing one
seed), each identified by a fingerprint of its contents.  A unit's lease
record walks a tiny state machine stored under the ``leases`` namespace:

    pending ──claim──▶ leased(owner, expires_at) ──complete──▶ done
       ▲                   │ expired (no heartbeat)
       └──────reclaim──────┘            (generation += 1, reclaims += 1)

All transitions go through :meth:`~repro.fabric.store.ArtifactStore.update`
— an atomic read-modify-write — so exactly one of N racing claimants wins
a unit; ``claim`` locks only a lease that reads claimable.  An owner that
keeps heartbeating (``renew``) keeps its lease; an owner that is
SIGKILLed simply stops renewing, its lease expires, and the unit is
*reclaimed* by the next claimant.  The old owner might still be
alive (stale clock, long GC, partition) and finish the unit anyway — that
is deliberately allowed, because result commits are idempotent in the
ledger; the lease layer only has to guarantee *progress*, never
uniqueness of execution.

``reopen`` handles the one gap TTLs cannot: a unit marked ``done`` whose
results never reached the ledger (a crash exactly between the final
commit and ``complete``, or a torn results write that was discarded).
The coordinator reopens such a unit in the pass that reads it ``done``
and finds one of its results missing.

Expiry uses wall-clock ``time.time()`` because leases are compared across
hosts; keep TTLs comfortably above expected clock skew (seconds, not
milliseconds).
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.fabric.store import ArtifactStore
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS

NS_UNITS = "units"
NS_LEASES = "leases"

STATE_PENDING = "pending"
STATE_LEASED = "leased"
STATE_DONE = "done"


def _pending(generation: int = 0, reclaims: int = 0) -> Dict[str, Any]:
    """A pending lease record (a fresh unit's, or a reopened one's)."""
    return {
        "state": STATE_PENDING,
        "owner": None,
        "generation": generation,
        "expires_at": 0.0,
        "reclaims": reclaims,
    }


def _claimable(lease: Dict[str, Any], now: float) -> bool:
    """Pending, or leased with an expired TTL: free for the next claimant."""
    state = lease.get("state")
    if state == STATE_LEASED:
        return lease.get("expires_at", 0.0) <= now
    return state != STATE_DONE


def unit_fingerprint(spec_fingerprint: str, stage: str, fingerprints: Iterable[str]) -> str:
    """Stable identity for one work unit: campaign + stage + member runs."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(spec_fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(stage.encode("utf-8"))
    for fingerprint in fingerprints:
        digest.update(b"\x00")
        digest.update(fingerprint.encode("utf-8"))
    return digest.hexdigest()


class LeaseQueue:
    """Claimable work units with TTL leases on a shared artifact store."""

    def __init__(self, store: ArtifactStore, ttl: float = 30.0):
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.store = store
        self.ttl = ttl
        self.counters: Dict[str, int] = {
            "enqueued": 0,
            "claimed": 0,
            "reclaimed": 0,
            "renewed": 0,
            "lost": 0,
            "completed": 0,
            "reopened": 0,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        METRICS.inc(f"fabric.leases.{name}", amount)

    # ------------------------------------------------------------------
    def enqueue(self, unit: Dict[str, Any]) -> bool:
        """Register a unit and its pending lease; idempotent per unit id.

        ``unit`` must carry ``unit_id``, ``stage``, ``seed`` and ``slots``
        (a list of ``{"fingerprint", "strategy"}`` documents).  Returns
        ``True`` iff this call created the unit.
        """
        unit_id = unit["unit_id"]
        created = self.store.put_if_absent(NS_UNITS, unit_id, unit)
        self.store.put_if_absent(NS_LEASES, unit_id, _pending())
        if created:
            self._count("enqueued")
        return created

    def claim(self, owner: str) -> Optional[Dict[str, Any]]:
        """Claim one pending or expired unit for ``owner``; None if none.

        Only a lease that reads claimable is locked; the transition checks
        again under the lock, so exactly one of N racing claimants wins.
        Returns the unit document (not the lease) on success.
        """
        now = time.time()
        for unit_id, lease in self.leases():
            if not _claimable(lease, now):
                continue
            claimed: Dict[str, bool] = {}

            def transition(
                lease: Optional[Dict[str, Any]],
            ) -> Optional[Dict[str, Any]]:
                # A missing/corrupt lease record for an existing unit is
                # treated as pending: progress beats bookkeeping.
                lease = lease if lease is not None else _pending()
                if not _claimable(lease, now):
                    return None
                expired = lease.get("state") == STATE_LEASED
                claimed["won"] = True
                claimed["reclaim"] = expired
                claimed["previous"] = lease.get("owner")
                return {
                    "state": STATE_LEASED,
                    "owner": owner,
                    "generation": int(lease.get("generation", 0)) + 1,
                    "expires_at": now + self.ttl,
                    "reclaims": int(lease.get("reclaims", 0)) + (1 if expired else 0),
                }

            self.store.update(NS_LEASES, unit_id, transition)
            if not claimed.get("won"):
                continue
            unit = self.store.get(NS_UNITS, unit_id)
            if unit is None:
                # lease without a unit body: drop the orphan and move on
                self.store.delete(NS_LEASES, unit_id)
                continue
            if claimed.get("reclaim"):
                self._count("reclaimed")
                BUS.emit(
                    "fabric.lease.reclaim",
                    unit=unit_id,
                    owner=owner,
                    previous=claimed.get("previous"),
                )
            else:
                self._count("claimed")
                BUS.emit("fabric.lease.claim", unit=unit_id, owner=owner)
            return unit
        return None

    def renew(self, unit_id: str, owner: str) -> bool:
        """Heartbeat: extend ``owner``'s lease.  ``False`` means the lease
        was lost (expired and reclaimed by someone else, or completed) —
        the caller may keep executing; idempotent commits absorb the race.
        """
        renewed: Dict[str, bool] = {}

        def transition(lease: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
            if lease is None or lease.get("state") != STATE_LEASED:
                return None
            if lease.get("owner") != owner:
                return None
            renewed["ok"] = True
            successor = dict(lease)
            successor["expires_at"] = time.time() + self.ttl
            return successor

        self.store.update(NS_LEASES, unit_id, transition)
        if renewed.get("ok"):
            self._count("renewed")
            return True
        self._count("lost")
        BUS.emit("fabric.lease.lost", unit=unit_id, owner=owner)
        return False

    def complete(self, unit_id: str, owner: str) -> None:
        """Mark a unit done.  Any current holder may complete it — results
        are already safe in the ledger by the time this is called, so a
        stale owner finishing a reclaimed unit is still real progress.
        """

        def transition(lease: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
            if lease is not None and lease.get("state") == STATE_DONE:
                return None
            return {
                "state": STATE_DONE,
                "owner": owner,
                "generation": int((lease or {}).get("generation", 0)),
                "expires_at": 0.0,
                "reclaims": int((lease or {}).get("reclaims", 0)),
            }

        self.store.update(NS_LEASES, unit_id, transition)
        self._count("completed")
        BUS.emit("fabric.unit.complete", unit=unit_id, owner=owner)

    def reopen(self, unit_id: str) -> bool:
        """Send a ``done`` unit back to ``pending`` (results went missing)."""
        reopened: Dict[str, bool] = {}

        def transition(lease: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
            if lease is None or lease.get("state") != STATE_DONE:
                return None
            reopened["ok"] = True
            return _pending(
                int(lease.get("generation", 0)), int(lease.get("reclaims", 0))
            )

        self.store.update(NS_LEASES, unit_id, transition)
        if reopened.get("ok"):
            self._count("reopened")
            BUS.emit("fabric.unit.reopen", unit=unit_id)
            return True
        return False

    # ------------------------------------------------------------------
    def leases(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Every ``(unit_id, lease)`` in key order, read without locking.

        A torn, missing or unreadable record reads as pending: it holds no
        live lease and no reclaims, and it stays claimable.
        """
        for unit_id in self.store.keys(NS_LEASES):
            try:
                lease = self.store.get(NS_LEASES, unit_id)
            except Exception:  # noqa: BLE001 - torn or unreachable record
                lease = None
            yield unit_id, lease if lease is not None else _pending()

    def states(self) -> Dict[str, str]:
        """Map of unit id -> lease state."""
        return {
            unit_id: lease.get("state", STATE_PENDING)
            for unit_id, lease in self.leases()
        }

    def leased_count(self) -> int:
        """Live (unexpired) leases right now.

        This is what tenant quota enforcement reads: the number of units a
        tenant's campaigns currently hold across the fleet.
        """
        now = time.time()
        return sum(
            1 for _, lease in self.leases()
            if lease.get("state") == STATE_LEASED and lease.get("expires_at", 0.0) > now
        )

    def reclaim_total(self) -> int:
        """Total reclaims recorded across all lease records (store-wide)."""
        return sum(int(lease.get("reclaims", 0)) for _, lease in self.leases())


__all__ = [
    "LeaseQueue",
    "NS_LEASES",
    "NS_UNITS",
    "STATE_DONE",
    "STATE_LEASED",
    "STATE_PENDING",
    "unit_fingerprint",
]

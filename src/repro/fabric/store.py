"""Pluggable artifact store: the fabric's shared, crash-safe key/value disk.

Everything the distributed campaign fabric shares between processes and
hosts — run-cache entries, work-lease records, committed results, the
campaign manifest — goes through one small interface,
:class:`ArtifactStore`: namespaced JSON documents with three atomicity
levels:

* :meth:`ArtifactStore.put` — last-writer-wins, but *torn-write free*: a
  reader sees either the old or the new complete document, never half.
* :meth:`ArtifactStore.put_if_absent` — atomic create; exactly one of N
  racing writers wins.  This is the exactly-once primitive the result
  ledger is built on.
* :meth:`ArtifactStore.update` — atomic read-modify-write of one key.
  This is the lease-transition primitive: claim, renew, and reclaim are
  all "read the lease, decide, write the successor" under the store's
  per-key mutual exclusion.

Two backends ship:

* :class:`LocalDirStore` — sharded JSON files (``<root>/<ns>/<k[:2]>/<k>
  .json``), atomic via ``tmp + rename`` / ``link`` and a per-key lockfile
  for :meth:`~ArtifactStore.update`.  Safe for many processes on one
  shared filesystem; this is also what the run cache has always been,
  now refactored behind the interface.
* :class:`SQLiteStore` — one WAL-mode SQLite database safe for concurrent
  writers (``BEGIN IMMEDIATE`` + busy timeout).  One file to ship or
  mount, transactional CAS for free.

Crash safety over speed: both backends assume workers can be SIGKILLed at
any instruction.  A crash mid-``put`` leaves the previous document; a
crash while holding an ``update`` lockfile is healed by stale-lock
breaking (and the fabric's ledger commits are idempotent, so even a
double-applied transition cannot double-count a result).

Fault hook (test/CI only): ``REPRO_TEST_FAULT=fabric-torn-write:<ns>``
makes the *first* write into that namespace (per process) persist a
truncated JSON document — simulating a torn write on a non-atomic
filesystem — so recovery paths (corrupt-entry cleanup, lease reopen) can
be exercised deterministically.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: same env hook the supervisor uses; fabric faults are namespaced values
FAULT_ENV = "REPRO_TEST_FAULT"

#: namespaces already torn in this process (the fault fires once per ns)
_TORN_NAMESPACES: set = set()


class StoreCorrupt(ValueError):
    """A stored document failed to parse (torn write, hand edit)."""


def _maybe_tear(namespace: str, text: str) -> str:
    """Apply the ``fabric-torn-write:<ns>`` fault to one serialized doc."""
    spec = os.environ.get(FAULT_ENV, "")
    mode, _, target = spec.partition(":")
    if mode != "fabric-torn-write" or target != namespace:
        return text
    if namespace in _TORN_NAMESPACES:
        return text
    _TORN_NAMESPACES.add(namespace)
    return text[: max(1, len(text) // 2)]


class ArtifactStore(ABC):
    """Namespaced JSON-document store shared by fabric participants."""

    @abstractmethod
    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored document, ``None`` if absent; :class:`StoreCorrupt`
        if present but unparseable."""

    @abstractmethod
    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        """Atomically (re)write one document (last writer wins)."""

    @abstractmethod
    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        """Atomically create; ``True`` iff this call created the document."""

    @abstractmethod
    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        """Atomic read-modify-write: ``fn(current) -> new | None``.

        ``fn`` receives the current document (``None`` when absent *or*
        corrupt — a torn lease record must stay claimable) and returns the
        successor document, or ``None`` to leave the store untouched.
        Returns whatever is in the store afterwards.  Exactly one of N
        concurrent updates applies at a time, so ``fn`` can safely
        implement compare-and-set transitions.
        """

    @abstractmethod
    def delete(self, namespace: str, key: str) -> bool:
        """Remove a document; ``True`` iff *this* call removed it.

        Never raises on a missing document — two processes racing to clean
        the same corrupt entry must both succeed, with exactly one of them
        told it did the deleting.
        """

    @abstractmethod
    def keys(self, namespace: str) -> List[str]:
        """All keys in a namespace (sorted)."""

    def count(self, namespace: str) -> int:
        return len(self.keys(namespace))

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class LocalDirStore(ArtifactStore):
    """Sharded one-JSON-file-per-document store on a (shared) filesystem.

    ``put`` stages to a temp file and ``os.replace``s it into place;
    ``put_if_absent`` publishes with ``os.link``, which fails atomically if
    the key exists; ``update`` serializes writers per key with an
    ``O_CREAT|O_EXCL`` lockfile.  A lockfile older than
    ``stale_lock_seconds`` is presumed orphaned by a killed process and
    broken — the critical sections here are single small-file operations,
    so a healthy holder can never be that slow.
    """

    def __init__(self, root: str, stale_lock_seconds: float = 10.0,
                 lock_timeout: float = 30.0):
        self.root = root
        self.stale_lock_seconds = stale_lock_seconds
        self.lock_timeout = lock_timeout
        #: orphaned lockfiles broken by this store instance (dead holder
        #: pid or stale mtime) — observability for recovery tests
        self.locks_broken = 0
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, namespace: str, key: str) -> str:
        return os.path.join(self.root, namespace, key[:2], f"{key}.json")

    def _write_atomic(self, path: str, namespace: str, payload: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(namespace, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorrupt(f"{path}: {exc}") from exc
        if not isinstance(document, dict):
            raise StoreCorrupt(f"{path}: expected a JSON object")
        return document

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        self._write_atomic(self.path_for(namespace, key), namespace, payload)

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        path = self.path_for(namespace, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                os.link(tmp, path)  # atomic create: fails iff the key exists
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    @staticmethod
    def _holder_dead(lock: str) -> bool:
        """Whether the lockfile names a holder pid that no longer runs.

        Conservative: an unreadable/empty lockfile or a live (or
        unverifiable) pid reads as "maybe alive" and falls back to the
        mtime-age heuristic.
        """
        try:
            with open(lock, "r", encoding="utf-8") as fh:
                pid = int(fh.read().strip() or "0")
        except (OSError, ValueError):
            return False
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False  # e.g. EPERM: alive but not ours
        return False

    @contextmanager
    def _key_lock(self, path: str) -> Iterator[None]:
        lock = path + ".lock"
        os.makedirs(os.path.dirname(lock), exist_ok=True)
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    age = time.time() - os.stat(lock).st_mtime
                except OSError:
                    continue  # holder released between open and stat; retry
                if age > self.stale_lock_seconds or self._holder_dead(lock):
                    # orphaned by a killed process: break it and retry.
                    # The holder pid (written below) catches a dead owner
                    # immediately; mtime age is the same-host-less fallback.
                    try:
                        os.unlink(lock)
                    except OSError:
                        pass
                    else:
                        self.locks_broken += 1
                    continue
                if time.monotonic() > deadline:
                    raise TimeoutError(f"could not acquire {lock}")
                time.sleep(0.005)
        try:
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            yield
        finally:
            try:
                os.unlink(lock)
            except OSError:
                pass

    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        path = self.path_for(namespace, key)
        with self._key_lock(path):
            try:
                current = self.get(namespace, key)
            except StoreCorrupt:
                current = None  # torn record: let fn overwrite it
            successor = fn(current)
            if successor is None:
                return current
            self._write_atomic(path, namespace, successor)
            return successor

    def delete(self, namespace: str, key: str) -> bool:
        try:
            os.unlink(self.path_for(namespace, key))
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    def keys(self, namespace: str) -> List[str]:
        ns_dir = os.path.join(self.root, namespace)
        found: List[str] = []
        if not os.path.isdir(ns_dir):
            return found
        for shard in os.listdir(ns_dir):
            shard_dir = os.path.join(ns_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".json"):
                    found.append(name[: -len(".json")])
        return sorted(found)


class MemoryStore(ArtifactStore):
    """In-process store for tests and single-process service setups.

    Documents are kept as serialized JSON text (so the torn-write fault
    hook and :class:`StoreCorrupt` behave exactly like the disk backends)
    behind one lock.  ``memory://<name>`` URLs resolve to a per-process
    registry, so a coordinator thread and worker threads opening the same
    name share one store — but nothing crosses a process boundary, which
    is the whole point of the other backends.
    """

    _registry: Dict[str, "MemoryStore"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._documents: Dict[tuple, str] = {}

    @classmethod
    def named(cls, name: str) -> "MemoryStore":
        """The process-wide store registered under ``name`` (created once)."""
        with cls._registry_lock:
            store = cls._registry.get(name)
            if store is None:
                store = cls._registry[name] = cls(name)
            return store

    @classmethod
    def reset_registry(cls) -> None:
        """Drop every named store (test isolation)."""
        with cls._registry_lock:
            cls._registry.clear()

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            text = self._documents.get((namespace, key))
        if text is None:
            return None
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorrupt(f"memory://{self.name}/{namespace}/{key}: {exc}") from exc
        if not isinstance(document, dict):
            raise StoreCorrupt(
                f"memory://{self.name}/{namespace}/{key}: expected a JSON object"
            )
        return document

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        with self._lock:
            self._documents[(namespace, key)] = text

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        with self._lock:
            if (namespace, key) in self._documents:
                return False
            self._documents[(namespace, key)] = text
            return True

    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        with self._lock:
            text = self._documents.get((namespace, key))
            current: Optional[Dict[str, Any]] = None
            if text is not None:
                try:
                    parsed = json.loads(text)
                    current = parsed if isinstance(parsed, dict) else None
                except json.JSONDecodeError:
                    current = None  # torn record: let fn overwrite it
            successor = fn(current)
            if successor is None:
                return current
            self._documents[(namespace, key)] = _maybe_tear(
                namespace, json.dumps(successor, sort_keys=True)
            )
            return successor

    def delete(self, namespace: str, key: str) -> bool:
        with self._lock:
            return self._documents.pop((namespace, key), None) is not None

    def keys(self, namespace: str) -> List[str]:
        with self._lock:
            return sorted(k for ns, k in self._documents if ns == namespace)


class SQLiteStore(ArtifactStore):
    """One SQLite database as the shared store (safe for concurrent writers).

    WAL journaling lets readers proceed under a writer; every write runs
    inside ``BEGIN IMMEDIATE`` so rmw transitions serialize across
    processes and hosts sharing the file, with ``busy_timeout`` absorbing
    contention instead of raising.  A single connection serves the whole
    process behind an internal lock (the heartbeat thread and the main
    loop share it); connections must NOT be reused across ``fork()`` —
    create the store in the process that uses it.
    """

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False, isolation_level=None
        )
        with self._lock:
            self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            # switching journal modes needs the database quiet; N workers
            # opening the same store at once can contend even with the busy
            # timeout, and WAL is a perf upgrade, not a correctness need —
            # retry briefly, then proceed in the default rollback mode
            for attempt in range(5):
                try:
                    self._conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError:
                    time.sleep(0.05 * (attempt + 1))
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS artifacts ("
                " ns TEXT NOT NULL, key TEXT NOT NULL, payload TEXT NOT NULL,"
                " version INTEGER NOT NULL DEFAULT 1, updated REAL NOT NULL,"
                " PRIMARY KEY (ns, key))"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _decode(namespace: str, key: str, text: str) -> Dict[str, Any]:
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorrupt(f"{namespace}/{key}: {exc}") from exc
        if not isinstance(document, dict):
            raise StoreCorrupt(f"{namespace}/{key}: expected a JSON object")
        return document

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM artifacts WHERE ns=? AND key=?",
                (namespace, key),
            ).fetchone()
        if row is None:
            return None
        return self._decode(namespace, key, row[0])

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        with self._lock:
            self._conn.execute(
                "INSERT INTO artifacts (ns, key, payload, version, updated)"
                " VALUES (?, ?, ?, 1, ?)"
                " ON CONFLICT (ns, key) DO UPDATE SET payload=excluded.payload,"
                " version=artifacts.version+1, updated=excluded.updated",
                (namespace, key, text, time.time()),
            )

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        text = _maybe_tear(namespace, json.dumps(payload, sort_keys=True))
        with self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO artifacts (ns, key, payload, version, updated)"
                " VALUES (?, ?, ?, 1, ?)",
                (namespace, key, text, time.time()),
            )
            return cursor.rowcount == 1

    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT payload FROM artifacts WHERE ns=? AND key=?",
                    (namespace, key),
                ).fetchone()
                current: Optional[Dict[str, Any]] = None
                if row is not None:
                    try:
                        current = self._decode(namespace, key, row[0])
                    except StoreCorrupt:
                        current = None  # torn record: let fn overwrite it
                successor = fn(current)
                if successor is None:
                    self._conn.execute("ROLLBACK")
                    return current
                text = _maybe_tear(namespace, json.dumps(successor, sort_keys=True))
                self._conn.execute(
                    "INSERT INTO artifacts (ns, key, payload, version, updated)"
                    " VALUES (?, ?, ?, 1, ?)"
                    " ON CONFLICT (ns, key) DO UPDATE SET payload=excluded.payload,"
                    " version=artifacts.version+1, updated=excluded.updated",
                    (namespace, key, text, time.time()),
                )
                self._conn.execute("COMMIT")
                return successor
            except BaseException:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise

    def delete(self, namespace: str, key: str) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM artifacts WHERE ns=? AND key=?", (namespace, key)
            )
            return cursor.rowcount > 0

    def keys(self, namespace: str) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM artifacts WHERE ns=? ORDER BY key", (namespace,)
            ).fetchall()
        return [row[0] for row in rows]

    def count(self, namespace: str) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM artifacts WHERE ns=?", (namespace,)
            ).fetchone()
        return int(row[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ----------------------------------------------------------------------
# telemetry namespace: the fleet telemetry plane's mailbox
# ----------------------------------------------------------------------
#: worker/coordinator status records published by :mod:`repro.obs.fleet`;
#: one document per participant, keyed by worker id, last-writer-wins
NS_TELEMETRY = "telemetry"


def publish_status(store: ArtifactStore, worker_id: str, record: Dict[str, Any]) -> None:
    """Publish one participant's status record (atomic on both backends)."""
    store.put(NS_TELEMETRY, worker_id, record)


def load_statuses(
    store: ArtifactStore, skipped: Optional[List[str]] = None
) -> Dict[str, Dict[str, Any]]:
    """All readable status records, keyed by worker id.

    A torn record (the publisher was killed mid-``put`` on a non-atomic
    filesystem) is skipped, not fatal — the next heartbeat overwrites it.
    Pass ``skipped`` (a list) to collect the worker ids of torn records,
    so ``repro top`` can count what it could not read instead of
    silently pretending those workers do not exist.
    """
    statuses: Dict[str, Dict[str, Any]] = {}
    for worker_id in store.keys(NS_TELEMETRY):
        try:
            record = store.get(NS_TELEMETRY, worker_id)
        except StoreCorrupt:
            if skipped is not None:
                skipped.append(worker_id)
            continue
        if record is not None:
            statuses[worker_id] = record
    return statuses


def clear_statuses(store: ArtifactStore) -> int:
    """Drop every status record (a fresh campaign starts with a clean fleet
    view); returns how many were removed."""
    removed = 0
    for worker_id in store.keys(NS_TELEMETRY):
        if store.delete(NS_TELEMETRY, worker_id):
            removed += 1
    return removed


# ----------------------------------------------------------------------
# multi-campaign layout: campaign-scoped namespaces + the campaign index
# ----------------------------------------------------------------------
#: root prefix under which every campaign's private namespaces live
CAMPAIGNS_PREFIX = "campaigns"

#: the campaign index: one record per submitted campaign, keyed by
#: campaign id — ``{campaign_id, tenant, spec_fingerprint, status,
#: max_leased_units, created_at, updated_at}``.  Workers poll it to find
#: claimable campaigns; the service folds it into quota accounting.
NS_CAMPAIGN_INDEX = "campaign-index"

CAMPAIGN_RUNNING = "running"
CAMPAIGN_COMPLETE = "complete"
CAMPAIGN_FAILED = "failed"
CAMPAIGN_CANCELLED = "cancelled"

#: index states that mean "a worker may still find work here"
ACTIVE_CAMPAIGN_STATES = (CAMPAIGN_RUNNING,)


def campaign_namespace(campaign_id: str, namespace: str) -> str:
    """The scoped name of one campaign-private namespace.

    ``campaigns/<id>/<ns>`` keeps every campaign's manifest, leases,
    ledger and telemetry disjoint on one shared store; the run cache
    (``runs``) deliberately stays at the root so identical runs are shared
    across campaigns and tenants.
    """
    return f"{CAMPAIGNS_PREFIX}/{campaign_id}/{namespace}"


class CampaignScopedStore(ArtifactStore):
    """A view of a base store with every namespace keyed under one campaign.

    The scoped view is what :class:`~repro.fabric.leases.LeaseQueue`,
    :class:`~repro.fabric.ledger.ResultLedger` and the fleet telemetry
    plane operate on in the multi-campaign layout — none of them know
    campaigns exist.  ``close`` is a no-op: the base store's lifecycle
    belongs to whoever opened it, and many scopes share one base.
    """

    def __init__(self, base: ArtifactStore, campaign_id: str):
        if not campaign_id:
            raise ValueError("campaign_id must be non-empty")
        self.base = base
        self.campaign_id = campaign_id

    def _ns(self, namespace: str) -> str:
        return campaign_namespace(self.campaign_id, namespace)

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        return self.base.get(self._ns(namespace), key)

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        self.base.put(self._ns(namespace), key, payload)

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        return self.base.put_if_absent(self._ns(namespace), key, payload)

    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        return self.base.update(self._ns(namespace), key, fn)

    def delete(self, namespace: str, key: str) -> bool:
        return self.base.delete(self._ns(namespace), key)

    def keys(self, namespace: str) -> List[str]:
        return self.base.keys(self._ns(namespace))

    def count(self, namespace: str) -> int:
        return self.base.count(self._ns(namespace))

    def close(self) -> None:
        pass  # the base store belongs to whoever opened it


def scoped_store(store: ArtifactStore, campaign_id: Optional[str]) -> ArtifactStore:
    """The campaign-scoped view of ``store`` (identity for the legacy
    single-campaign root layout, ``campaign_id=None``)."""
    if campaign_id is None:
        return store
    return CampaignScopedStore(store, campaign_id)


def register_campaign(
    store: ArtifactStore, campaign_id: str, record: Dict[str, Any]
) -> bool:
    """Add one campaign to the index; ``True`` iff this call created it."""
    return store.put_if_absent(NS_CAMPAIGN_INDEX, campaign_id, record)


def update_campaign(
    store: ArtifactStore, campaign_id: str, **changes: Any
) -> Optional[Dict[str, Any]]:
    """Merge ``changes`` into one index record (atomic; stamps updated_at)."""

    def merge(current: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        record = dict(current or {"campaign_id": campaign_id})
        record.update(changes)
        record["updated_at"] = time.time()
        return record

    return store.update(NS_CAMPAIGN_INDEX, campaign_id, merge)


def load_campaign_index(store: ArtifactStore) -> Dict[str, Dict[str, Any]]:
    """Every readable index record, keyed by campaign id (torn skipped)."""
    records: Dict[str, Dict[str, Any]] = {}
    for campaign_id in store.keys(NS_CAMPAIGN_INDEX):
        try:
            record = store.get(NS_CAMPAIGN_INDEX, campaign_id)
        except StoreCorrupt:
            continue
        if record is not None:
            records[campaign_id] = record
    return records


# ----------------------------------------------------------------------
# store addressing
# ----------------------------------------------------------------------
#: recognized store-URL schemes (``scheme://rest``)
STORE_SCHEMES = ("dir", "sqlite", "memory")


def _open_backend(spec: str) -> ArtifactStore:
    scheme, sep, rest = spec.partition("://")
    if sep:
        if scheme == "dir":
            return LocalDirStore(rest)
        if scheme == "sqlite":
            return SQLiteStore(rest)
        if scheme == "memory":
            return MemoryStore.named(rest)
    raise ValueError(
        f"unknown store scheme in {spec!r}; "
        f"expected one of {', '.join(s + '://' for s in STORE_SCHEMES)}"
    )


def store_for(
    spec: str,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
) -> ArtifactStore:
    """Open the artifact store named by a CLI/spec/manifest string.

    Addressing is URL-scheme based:

    * ``dir://PATH``    — sharded-JSON :class:`LocalDirStore` directory
    * ``sqlite://PATH`` — WAL-mode :class:`SQLiteStore` database file
    * ``memory://NAME`` — process-local :class:`MemoryStore` (tests and
      single-process service setups; one shared instance per name)

    Anything else — a bare path included — raises :class:`ValueError`.

    ``retries`` > 0 wraps the backend in a
    :class:`~repro.fabric.resilience.ResilientStore` (classified retries
    with ``backoff`` base seconds, plus a circuit breaker); the default
    returns the bare backend.  When the
    ``REPRO_TEST_FAULT=fabric-store-chaos:<rate>`` hook is set, a seeded
    :class:`~repro.fabric.resilience.ChaosStore` is layered *under* the
    retry wrapper so every store consumer is exercised against injected
    transient faults.
    """
    store = _open_backend(spec)
    fault = os.environ.get(FAULT_ENV, "")
    mode, _, value = fault.partition(":")
    if mode == "fabric-store-chaos":
        from repro.fabric.resilience import chaos_from_env

        store = chaos_from_env(store, value)
    if retries is not None and retries > 0:
        from repro.fabric.resilience import DEFAULT_BACKOFF, ResilientStore

        store = ResilientStore(
            store,
            retries=retries,
            backoff=DEFAULT_BACKOFF if backoff is None else backoff,
        )
    return store

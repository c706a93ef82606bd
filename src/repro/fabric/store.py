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
  shared filesystem, so it serves every multi-process path; this is also
  what the run cache has always been, now refactored behind the
  interface.
* :class:`MemoryStore` — one process's documents behind one lock, for
  tests and single-process service setups.

Every wrapper around a backend is a :class:`StoreView`, which sends the
six operations through one hook: :class:`CampaignScopedStore` renames
the namespace, and :mod:`repro.fabric.resilience` retries or injects
faults.

Crash safety over speed: the directory backend assumes workers can be
SIGKILLed at any instruction.  A crash mid-``put`` leaves the previous
document; a crash while holding an ``update`` lockfile is healed by
stale-lock breaking (and the fabric's ledger commits are idempotent, so
even a double-applied transition cannot double-count a result).

Fault hook (test/CI only): ``REPRO_TEST_FAULT=fabric-torn-write:<ns>``
makes the *first* write into that namespace (per process) persist a
truncated JSON document — simulating a torn write on a non-atomic
filesystem — so recovery paths (corrupt-entry cleanup, lease reopen) can
be exercised deterministically.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: test/CI-only fault injection, ``<mode>[:<value>]``: ``hang`` and
#: ``crash`` for the worker pool, the ``fabric-*`` modes for the fabric
FAULT_ENV = "REPRO_TEST_FAULT"

#: namespaces already torn in this process (the fault fires once per ns)
_TORN_NAMESPACES: set = set()

#: this host's name, written into ``update`` lockfiles beside the pid
_HOST = socket.gethostname()


def fault_hook(mode: str) -> Optional[str]:
    """The value of the :data:`FAULT_ENV` fault when it names ``mode``
    (``""`` when it carries none), otherwise ``None``."""
    got, _, value = os.environ.get(FAULT_ENV, "").partition(":")
    return value if got == mode else None


class StoreCorrupt(ValueError):
    """A stored document failed to parse (torn write, hand edit)."""


def _encode(namespace: str, payload: Dict[str, Any]) -> str:
    """Serialize one document, applying the ``fabric-torn-write:<ns>``
    fault the first time this process writes into ``namespace``."""
    text = json.dumps(payload, sort_keys=True)
    if fault_hook("fabric-torn-write") != namespace or namespace in _TORN_NAMESPACES:
        return text
    _TORN_NAMESPACES.add(namespace)
    return text[: max(1, len(text) // 2)]


def _decode(data: Union[bytes, str], where: str) -> Dict[str, Any]:
    """Parse one stored document (UTF-8 bytes or text): a JSON object, or
    :class:`StoreCorrupt`, also for bytes that are not UTF-8."""
    try:
        document = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorrupt(f"{where}: {exc}") from exc
    if not isinstance(document, dict):
        raise StoreCorrupt(f"{where}: expected a JSON object")
    return document


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


class LocalDirStore(ArtifactStore):
    """Sharded one-JSON-file-per-document store on a (shared) filesystem.

    Every write stages the document in a temp file beside its path:
    ``put`` then ``os.replace``s it into place, and ``put_if_absent``
    publishes it with ``os.link``, which fails atomically if the key
    exists; ``update`` serializes writers per key with an
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

    def _write(self, path: str, namespace: str, payload: Dict[str, Any],
               exclusive: bool = False) -> bool:
        """Stage ``payload`` in a temp file beside ``path``, then publish it:
        ``os.replace`` (last writer wins), or with ``exclusive`` ``os.link``
        (``False`` iff the key already exists)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        replaced = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(_encode(namespace, payload))
            if exclusive:
                try:
                    os.link(tmp, path)  # atomic create: fails iff the key exists
                except FileExistsError:
                    return False
                return True
            os.replace(tmp, path)
            replaced = True
            return True
        finally:
            if not replaced:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(namespace, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        return _decode(data, path)

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        self._write(self.path_for(namespace, key), namespace, payload)

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        return self._write(self.path_for(namespace, key), namespace, payload,
                           exclusive=True)

    @staticmethod
    def _holder_dead(lock: str) -> bool:
        """Whether the lockfile names a holder on this host whose pid no
        longer runs.

        The lockfile reads ``<host> <pid>``; a bare pid reads as this
        host's.  Conservative: an unreadable/empty lockfile, a live (or
        unverifiable) pid, or a holder on another host (whose pids this
        host cannot probe) reads as "maybe alive" and falls back to the
        mtime-age heuristic.
        """
        try:
            with open(lock, "r", encoding="utf-8") as fh:
                host, _, pid_text = fh.read().strip().rpartition(" ")
            pid = int(pid_text or "0")
        except (OSError, ValueError):
            return False
        if pid <= 0 or host not in ("", _HOST):
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
                    # The holder's host and pid (written below) catch a
                    # dead owner on this host immediately; mtime age is
                    # the fallback for a holder on another host.
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
            os.write(fd, f"{_HOST} {os.getpid()}".encode("utf-8"))
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
            self._write(path, namespace, successor)
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
    hook and :class:`StoreCorrupt` behave exactly like the directory
    backend) behind one lock.  ``memory://<name>`` URLs resolve to a
    per-process registry, so a coordinator thread and worker threads
    opening the same name share one store — but nothing crosses a process
    boundary; that is what ``dir://`` is for.
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
    def _where(self, namespace: str, key: str) -> str:
        return f"memory://{self.name}/{namespace}/{key}"

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            text = self._documents.get((namespace, key))
        if text is None:
            return None
        return _decode(text, self._where(namespace, key))

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        text = _encode(namespace, payload)
        with self._lock:
            self._documents[(namespace, key)] = text

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        text = _encode(namespace, payload)
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
                    current = _decode(text, self._where(namespace, key))
                except StoreCorrupt:
                    current = None  # torn record: let fn overwrite it
            successor = fn(current)
            if successor is None:
                return current
            self._documents[(namespace, key)] = _encode(namespace, successor)
            return successor

    def delete(self, namespace: str, key: str) -> bool:
        with self._lock:
            return self._documents.pop((namespace, key), None) is not None

    def keys(self, namespace: str) -> List[str]:
        with self._lock:
            return sorted(k for ns, k in self._documents if ns == namespace)


# ----------------------------------------------------------------------
# telemetry namespace: the fleet telemetry plane's mailbox
# ----------------------------------------------------------------------
#: worker/coordinator status records published by :mod:`repro.obs.fleet`;
#: one document per participant, keyed by worker id, last-writer-wins
NS_TELEMETRY = "telemetry"


def publish_status(store: ArtifactStore, worker_id: str, record: Dict[str, Any]) -> None:
    """Publish one participant's status record (an atomic ``put``)."""
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
# store layout: campaign-scoped namespaces + the campaign index
# ----------------------------------------------------------------------
#: root prefix under which every campaign's private namespaces live
CAMPAIGNS_PREFIX = "campaigns"

#: the campaign index: one record per campaign, keyed by campaign id —
#: ``{campaign_id, tenant, spec_fingerprint, status, created_at,
#: updated_at}``, plus ``max_leased_units`` from the service or
#: ``standalone: true`` from ``run_campaign``.  Workers poll it to find
#: claimable campaigns; the service folds it into quota accounting.
NS_CAMPAIGN_INDEX = "campaign-index"

#: campaign statuses, shared by the index record and the scoped manifest
#: (only the manifest passes through ``cancelling``)
CAMPAIGN_RUNNING = "running"
CAMPAIGN_CANCELLING = "cancelling"
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


class StoreView(ArtifactStore):
    """A store in front of another store, ``inner``.

    The six operations are written once, here: each passes through
    :meth:`_forward`, the one hook a view overrides to rename, retry or
    perturb the call before ``inner`` sees it.
    """

    def __init__(self, inner: ArtifactStore):
        self.inner = inner

    def _forward(self, op: str, namespace: str, call: Callable[[str], Any]) -> Any:
        """Run operation ``op``: ``call(ns)`` applies it to ``inner`` in
        namespace ``ns``."""
        return call(namespace)

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        return self._forward("get", namespace, lambda ns: self.inner.get(ns, key))

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> None:
        self._forward("put", namespace, lambda ns: self.inner.put(ns, key, payload))

    def put_if_absent(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        return self._forward(
            "put_if_absent", namespace,
            lambda ns: self.inner.put_if_absent(ns, key, payload),
        )

    def update(
        self,
        namespace: str,
        key: str,
        fn: Callable[[Optional[Dict[str, Any]]], Optional[Dict[str, Any]]],
    ) -> Optional[Dict[str, Any]]:
        return self._forward("update", namespace, lambda ns: self.inner.update(ns, key, fn))

    def delete(self, namespace: str, key: str) -> bool:
        return self._forward("delete", namespace, lambda ns: self.inner.delete(ns, key))

    def keys(self, namespace: str) -> List[str]:
        return self._forward("keys", namespace, self.inner.keys)


class CampaignScopedStore(StoreView):
    """A view of a base store with every namespace keyed under one campaign.

    The scoped view is what :class:`~repro.fabric.leases.LeaseQueue`,
    :class:`~repro.fabric.ledger.ResultLedger` and the fleet telemetry
    plane operate on — none of them know campaigns exist.  Many scopes
    share one base.  Backend attributes are deliberately not passed
    through: the base's ``path_for`` would address unscoped namespaces.
    """

    def __init__(self, base: ArtifactStore, campaign_id: str):
        if not campaign_id:
            raise ValueError("campaign_id must be non-empty")
        super().__init__(base)
        self.campaign_id = campaign_id

    def _forward(self, op: str, namespace: str, call: Callable[[str], Any]) -> Any:
        return call(campaign_namespace(self.campaign_id, namespace))


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
STORE_SCHEMES = ("dir", "memory")


def _open_backend(spec: str) -> ArtifactStore:
    scheme, sep, rest = spec.partition("://")
    if sep:
        if scheme == "dir":
            return LocalDirStore(rest)
        if scheme == "memory":
            return MemoryStore.named(rest)
    raise ValueError(
        f"unknown store scheme in {spec!r}; "
        f"expected one of {', '.join(s + '://' for s in STORE_SCHEMES)}"
    )


def store_for(spec: str) -> ArtifactStore:
    """Open the artifact store named by a CLI/spec/manifest string.

    Addressing is URL-scheme based:

    * ``dir://PATH``    — sharded-JSON :class:`LocalDirStore` directory
    * ``memory://NAME`` — process-local :class:`MemoryStore` (tests and
      single-process service setups; one shared instance per name)

    Anything else — a bare path included — raises :class:`ValueError`.

    The backend always comes wrapped in a
    :class:`~repro.fabric.resilience.ResilientStore` with its built-in
    policy (classified retries with exponential backoff, plus a circuit
    breaker).  When the ``REPRO_TEST_FAULT=fabric-store-chaos:<rate>``
    hook is set, a seeded :class:`~repro.fabric.resilience.ChaosStore` is
    layered *under* the retry wrapper so every store consumer is
    exercised against injected transient faults.
    """
    # imported here: repro.fabric.resilience imports this module
    from repro.fabric.resilience import ResilientStore, chaos_from_env

    store = _open_backend(spec)
    chaos = fault_hook("fabric-store-chaos")
    if chaos is not None:
        store = chaos_from_env(store, chaos)
    return ResilientStore(store)

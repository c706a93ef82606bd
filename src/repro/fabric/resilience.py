"""Store fault tolerance: classified retries, a circuit breaker, chaos.

The fabric assumes the artifact store is perfectly reliable; real shared
filesystems are not.  This module closes the gap with two
:class:`~repro.fabric.store.StoreView` decorators, each one override of
the view's forwarding hook:

* :class:`ResilientStore` — wraps any backend with *classified* retries
  (:func:`~repro.fabric.store.store_for` wraps every store it opens in
  one, with the class defaults): transient faults (``OSError``, the
  lockfile ``TimeoutError`` included) are retried with exponential
  backoff and deterministic jitter;
  :class:`~repro.fabric.store.StoreCorrupt` and other programming errors
  are never retried — a torn record does not heal by rereading it.  A
  half-open circuit breaker trips after N *consecutive* exhausted
  operations, fails fast with :class:`StoreOutage` while open, and lets
  one probe operation through after a cooldown; success closes it.
  Every retry bumps the ``store.retries`` counter and emits a
  ``store.retry`` trace event; breaker transitions bump
  ``store.breaker_open`` and emit ``store.breaker.open`` /
  ``store.breaker.close``.

* :class:`ChaosStore` — deterministic fault injection for tests and CI:
  a seeded per-operation transient-error rate.  The
  ``REPRO_TEST_FAULT=fabric-store-chaos:<rate>[:<seed>]`` hook wraps
  every ``store_for``-opened store in a ChaosStore with that error rate,
  so leases, ledger, cache, telemetry, workers and the coordinator are
  all exercised under store failure.

Retry caveat, by design: a retried :meth:`~ArtifactStore.update` may run
``fn`` again, and a retried ``put_if_absent`` whose first attempt failed
*after* applying reports ``False`` on the retry.  Every fabric
transition is built for exactly that (CAS-style lease transitions,
idempotent ledger commits), which is why the wrapper can sit under all
of them.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Optional

from repro.fabric.store import ArtifactStore, StoreView
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS

#: default backoff base (seconds) between retry attempts
DEFAULT_BACKOFF = 0.05

#: default consecutive exhausted operations before the breaker trips
DEFAULT_BREAKER_THRESHOLD = 3

#: default seconds the breaker stays open before a half-open probe
DEFAULT_BREAKER_COOLDOWN = 1.0

#: cap on any single backoff sleep (seconds)
MAX_BACKOFF = 2.0


class StoreOutage(OSError):
    """The store kept failing past the retry budget (or the breaker is
    open).  Subclasses ``OSError`` so degraded-mode ``except OSError``
    handlers in the drive loops treat budget exhaustion and a raw
    transient fault uniformly."""


def is_transient(error: BaseException) -> bool:
    """Whether a store fault is worth retrying.

    ``OSError`` covers everything a flaky filesystem throws (EIO, ENOSPC
    races, NFS hiccups) plus the lockfile ``TimeoutError``; an exhausted
    :class:`StoreOutage` is not retried again.  ``StoreCorrupt`` is a
    :class:`ValueError` — a torn record is *data*, not weather, and
    rereading it cannot help — and every other exception is a bug.
    """
    return isinstance(error, OSError) and not isinstance(error, StoreOutage)


class CircuitBreaker:
    """Half-open circuit breaker over consecutive operation failures.

    Closed (normal) → ``threshold`` consecutive *exhausted* operations →
    open (every call fails fast) → after ``cooldown`` seconds one probe
    call is let through (half-open) → probe success closes, probe failure
    re-opens.  Thread-safe; shared by every operation of one store.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened = 0  # lifetime open transitions
        self._opened_at: Optional[float] = None
        self._probing = False
        self._lock = threading.Lock()

    @property
    def open(self) -> bool:
        with self._lock:
            return self._opened_at is not None

    def admit(self) -> bool:
        """Whether a new operation may proceed (claims the half-open
        probe slot when the cooldown has elapsed)."""
        with self._lock:
            if self._opened_at is None:
                return True
            if time.monotonic() - self._opened_at < self.cooldown:
                return False
            if self._probing:
                return False
            self._probing = True  # this caller is the half-open probe
            return True

    def record_success(self) -> None:
        with self._lock:
            was_open = self._opened_at is not None
            self.failures = 0
            self._opened_at = None
            self._probing = False
        if was_open:
            BUS.emit("store.breaker.close")

    def record_failure(self) -> None:
        """One operation exhausted its retries; maybe trip the breaker."""
        with self._lock:
            self.failures += 1
            self._probing = False
            tripped = self._opened_at is None and self.failures >= self.threshold
            if tripped or self._opened_at is not None:
                self._opened_at = time.monotonic()
                if tripped:
                    self.opened += 1
        if tripped:
            METRICS.inc("store.breaker_open")
            BUS.emit("store.breaker.open", failures=self.failures)


class ResilientStore(StoreView):
    """Classified-retry + circuit-breaker decorator over any backend.

    ``retries`` is extra attempts per operation after the first;
    ``backoff`` the base sleep, doubled per attempt with deterministic
    jitter from ``seed`` (same seed → same sleep schedule, so chaos runs
    replay).  The breaker trips after ``breaker_threshold`` consecutive
    operations that exhausted their budget and fails fast with
    :class:`StoreOutage` until a half-open probe succeeds.
    """

    def __init__(
        self,
        inner: ArtifactStore,
        retries: int = 3,
        backoff: float = DEFAULT_BACKOFF,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        seed: int = 0,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        super().__init__(inner)
        self.retries = retries
        self.backoff = backoff
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self.retried = 0  # lifetime retry attempts (mirrors store.retries)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()

    def __getattr__(self, name: str) -> Any:
        # backend-specific attributes (root, path_for, ...) stay
        # reachable through the wrapper
        return getattr(self.inner, name)

    # ------------------------------------------------------------------
    def _sleep_for(self, attempt: int) -> float:
        with self._rng_lock:
            jitter = self._rng.uniform(0.5, 1.5)
        return min(self.backoff * (2 ** attempt) * jitter, MAX_BACKOFF)

    def _forward(self, op: str, namespace: str, call: Callable[[str], Any]) -> Any:
        # a retried update may run its fn again, so every update fn must be
        # a compare-and-set style transition; the fabric's lease transitions
        # are, and ledger commits are idempotent
        if not self.breaker.admit():
            raise StoreOutage(f"store circuit breaker open (op {op})")
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            try:
                result = call(namespace)
            except BaseException as error:  # noqa: BLE001 - classified below
                if not is_transient(error):
                    # not retriable, but not an outage signal either:
                    # corrupt data / bugs do not feed the breaker
                    raise
                last = error
                if attempt < self.retries:
                    self.retried += 1
                    METRICS.inc("store.retries")
                    BUS.emit(
                        "store.retry", op=op, attempt=attempt + 1,
                        error=f"{type(error).__name__}: {error}",
                    )
                    delay = self._sleep_for(attempt)
                    if delay > 0:
                        time.sleep(delay)
                continue
            self.breaker.record_success()
            return result
        self.breaker.record_failure()
        raise StoreOutage(
            f"store op {op} failed after {self.retries + 1} attempt(s): "
            f"{type(last).__name__}: {last}"
        ) from last


class ChaosStore(StoreView):
    """Seeded transient-fault injection in front of any backend (tests/CI).

    Each operation raises a transient ``OSError`` with probability
    ``error_rate`` *before* touching the backend (fail-before, so a
    retried operation never double-applies).  All randomness comes from
    one seeded RNG, so a chaos campaign replays deterministically given
    the same seed and operation order.
    """

    def __init__(self, inner: ArtifactStore, error_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        super().__init__(inner)
        self.error_rate = error_rate
        self.injected_errors = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    # ------------------------------------------------------------------
    def _forward(self, op: str, namespace: str, call: Callable[[str], Any]) -> Any:
        if self.error_rate > 0.0:
            with self._lock:
                fail = self._rng.random() < self.error_rate
                if fail:
                    self.injected_errors += 1
            if fail:
                raise OSError(f"chaos: injected transient fault ({op} {namespace})")
        return call(namespace)


def chaos_from_env(inner: ArtifactStore, spec: str) -> ArtifactStore:
    """Apply the ``fabric-store-chaos:<rate>[:<seed>]`` fault-hook value."""
    rate_raw, _, seed_raw = spec.partition(":")
    rate = float(rate_raw)
    seed = int(seed_raw) if seed_raw else 0
    return ChaosStore(inner, error_rate=rate, seed=seed)


__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_BREAKER_COOLDOWN",
    "DEFAULT_BREAKER_THRESHOLD",
    "ChaosStore",
    "CircuitBreaker",
    "ResilientStore",
    "StoreOutage",
    "chaos_from_env",
    "is_transient",
]

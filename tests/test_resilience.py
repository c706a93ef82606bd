"""Store fault tolerance: classified retries, the circuit breaker, chaos
injection, degraded-mode drive loops, and per-campaign metrics scoping.

The expensive end-to-end check pins the resilience contract: a fabric
campaign swept through a ChaosStore injecting transient faults completes
with accounting identical to a fault-free run — retries and breaker
trips are visible in the ``store.*`` counters, never in the results.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core.executor import TestbedConfig
from repro.fabric import LocalDirStore, MemoryStore, store_for
from repro.fabric.config import FabricConfig
from repro.fabric.resilience import (
    DEFAULT_BACKOFF,
    DEFAULT_BREAKER_THRESHOLD,
    MAX_BACKOFF,
    ChaosStore,
    ResilientStore,
    StoreOutage,
    chaos_from_env,
    is_transient,
)
from repro.fabric.store import FAULT_ENV, StoreCorrupt, StoreView
from repro.fabric.worker import FabricWorker
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS, MetricsRegistry, ScopedMetrics

FAST = dict(duration=0.5, file_size=200_000)


def _fast_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13", **FAST),
        workers=1, sample_every=500,
    )
    return base.with_overrides(**overrides) if overrides else base


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


class FlakyStore(StoreView):
    """Raises ``error`` for the next ``fail`` operations, then delegates."""

    def __init__(self, inner, fail=0, error=None):
        super().__init__(inner)
        self.fail = fail
        self.error = error if error is not None else OSError("flaky")
        self.calls = 0

    def _forward(self, op, namespace, call):
        self.calls += 1
        if self.fail > 0:
            self.fail -= 1
            raise self.error
        return call(namespace)


#: each store operation with its result, in an order that gives every one
#: something to act on when the store starts empty
OPERATIONS = [
    ("put", lambda s: s.put("ns", "k", {"v": 1}), None),
    ("get", lambda s: s.get("ns", "k"), {"v": 1}),
    ("put_if_absent", lambda s: s.put_if_absent("ns", "j", {"v": 2}), True),
    ("update", lambda s: s.update("ns", "k", lambda cur: {"v": cur["v"] + 1}), {"v": 2}),
    ("keys", lambda s: s.keys("ns"), ["j", "k"]),
    ("delete", lambda s: s.delete("ns", "j"), True),
]


# ----------------------------------------------------------------------
class TestClassification:
    def test_transient_faults(self):
        assert is_transient(OSError("EIO"))
        assert is_transient(TimeoutError("could not acquire lock"))

    def test_permanent_faults(self):
        assert not is_transient(StoreCorrupt("torn"))
        assert not is_transient(StoreOutage("breaker open"))
        assert not is_transient(ValueError("bug"))
        assert not is_transient(KeyError("bug"))


class TestResilientStore:
    def _store(self, fail=0, error=None, **kwargs):
        flaky = FlakyStore(MemoryStore(), fail=fail, error=error)
        kwargs.setdefault("backoff", 0.0)
        return ResilientStore(flaky, **kwargs), flaky

    def test_transient_fault_is_retried(self, metrics):
        store, flaky = self._store(fail=2, retries=3)
        store.put("ns", "k", {"v": 1})
        assert store.get("ns", "k") == {"v": 1}
        assert store.retried == 2
        assert metrics.counter("store.retries").value == 2
        assert flaky.calls == 4  # 3 attempts for the put + 1 clean get

    def test_every_operation_is_retried(self):
        # one transient fault in front of each operation, each absorbed
        flaky = FlakyStore(MemoryStore())
        store = ResilientStore(flaky, backoff=0.0)
        for n, (op, call, expected) in enumerate(OPERATIONS, 1):
            flaky.fail = 1
            assert call(store) == expected, op
            assert store.retried == n, op
        assert flaky.calls == 2 * len(OPERATIONS)

    def test_corrupt_record_is_never_retried(self):
        store, flaky = self._store(fail=5, error=StoreCorrupt("torn"), retries=3)
        with pytest.raises(StoreCorrupt):
            store.get("ns", "k")
        assert store.retried == 0
        assert flaky.calls == 1
        # corrupt data is not an outage signal: the breaker stays fed
        assert store.breaker.failures == 0

    def test_exhaustion_raises_store_outage(self):
        store, _ = self._store(fail=10, retries=1)
        with pytest.raises(StoreOutage):
            store.get("ns", "k")
        assert store.breaker.failures == 1
        assert not store.breaker.open
        # StoreOutage subclasses OSError so degraded-mode handlers catch it
        assert issubclass(StoreOutage, OSError)

    def test_breaker_trips_then_fails_fast(self, metrics):
        store, flaky = self._store(
            fail=100, retries=0, breaker_threshold=2, breaker_cooldown=60.0
        )
        for _ in range(2):
            with pytest.raises(StoreOutage):
                store.get("ns", "k")
        assert store.breaker.open and store.breaker.opened == 1
        assert metrics.counter("store.breaker_open").value == 1
        calls_before = flaky.calls
        with pytest.raises(StoreOutage):
            store.get("ns", "k")  # fail-fast: the backend is not touched
        assert flaky.calls == calls_before

    def test_half_open_probe_closes_breaker(self):
        store, flaky = self._store(
            fail=2, retries=0, breaker_threshold=2, breaker_cooldown=0.05
        )
        for _ in range(2):
            with pytest.raises(StoreOutage):
                store.get("ns", "k")
        assert store.breaker.open
        time.sleep(0.06)  # cooldown elapses; the flaky window is over too
        assert store.get("ns", "k") is None  # the probe succeeds
        assert not store.breaker.open

    def test_failed_probe_reopens(self):
        store, _ = self._store(
            fail=100, retries=0, breaker_threshold=1, breaker_cooldown=0.05
        )
        with pytest.raises(StoreOutage):
            store.get("ns", "k")
        time.sleep(0.06)
        with pytest.raises(StoreOutage):
            store.get("ns", "k")  # probe admitted, fails, re-opens
        assert store.breaker.open

    def test_jitter_is_deterministic_and_bounded(self):
        a = ResilientStore(MemoryStore(), backoff=0.01, seed=7)
        b = ResilientStore(MemoryStore(), backoff=0.01, seed=7)
        schedule_a = [a._sleep_for(i) for i in range(6)]
        schedule_b = [b._sleep_for(i) for i in range(6)]
        assert schedule_a == schedule_b
        assert all(0 < s <= MAX_BACKOFF for s in schedule_a)
        assert a._sleep_for(40) <= MAX_BACKOFF

    def test_backend_attributes_stay_reachable(self, tmp_path):
        store = ResilientStore(LocalDirStore(str(tmp_path / "s")))
        assert store.root == str(tmp_path / "s")


class TestChaosStore:
    def test_error_injection_is_seeded(self):
        results = []
        for _ in range(2):
            chaos = ChaosStore(MemoryStore(), error_rate=0.5, seed=11)
            outcome = []
            for i in range(40):
                try:
                    chaos.put("ns", f"k{i}", {"i": i})
                    outcome.append("ok")
                except OSError:
                    outcome.append("err")
            results.append((outcome, chaos.injected_errors))
        assert results[0] == results[1]
        assert results[0][1] > 0

    def test_fail_before_never_double_applies(self):
        chaos = ChaosStore(MemoryStore(), error_rate=1.0)
        with pytest.raises(OSError):
            chaos.put("ns", "k", {"v": 1})
        # the fault fired before the backend was touched
        assert chaos.inner.get("ns", "k") is None

    def test_every_operation_fails_before_the_backend(self):
        backend = FlakyStore(MemoryStore())  # never fails: counts calls
        chaos = ChaosStore(backend, error_rate=1.0)
        for op, call, _ in OPERATIONS:
            with pytest.raises(OSError, match=rf"chaos: .*\({op} ns\)"):
                call(chaos)
        assert chaos.injected_errors == len(OPERATIONS)
        assert backend.calls == 0

    def test_chaos_from_env_parses_rate_and_seed(self):
        chaos = chaos_from_env(MemoryStore(), "0.25:7")
        assert isinstance(chaos, ChaosStore)
        assert chaos.error_rate == 0.25
        # same seed, same draws: the hook's fault pattern replays
        again = ChaosStore(MemoryStore(), error_rate=0.25, seed=7)
        assert chaos._rng.random() == again._rng.random()

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            ChaosStore(MemoryStore(), error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosStore(MemoryStore(), error_rate=-0.1)


class TestStoreForWiring:
    def test_every_store_is_resilient(self, tmp_path):
        # the retry wrapper is built in: no setting opens a bare backend
        for url, backend in (("dir://" + str(tmp_path / "a"), LocalDirStore),
                             ("memory://wire-a", MemoryStore)):
            store = store_for(url)
            assert isinstance(store, ResilientStore)
            assert isinstance(store.inner, backend)
        with pytest.raises(TypeError):
            store_for("memory://wire-a", retries=2)

    def test_retries_wrap_in_resilient_store(self, tmp_path):
        # the class defaults: 3 retries, 0.05 s base backoff, a breaker
        store = store_for("dir://" + str(tmp_path / "b"))
        assert isinstance(store.inner, LocalDirStore)
        assert store.retries == 3 and store.backoff == DEFAULT_BACKOFF == 0.05
        assert store.breaker.threshold == DEFAULT_BREAKER_THRESHOLD

    def test_chaos_env_hook_layers_under_retries(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fabric-store-chaos:0.5:3")
        both = store_for("memory://chaos-wire-b")
        assert isinstance(both, ResilientStore)
        assert isinstance(both.inner, ChaosStore) and both.inner.error_rate == 0.5
        assert isinstance(both.inner.inner, MemoryStore)

    def test_other_fault_hooks_leave_store_bare(self, monkeypatch):
        # no chaos layer between the retry wrapper and the backend
        monkeypatch.setenv(FAULT_ENV, "fabric-stale-lease")
        assert isinstance(store_for("memory://chaos-wire-c").inner, MemoryStore)


# ----------------------------------------------------------------------
class TestLockfileRecovery:
    @staticmethod
    def _dead_pid():
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_dead_holder_lock_is_broken_immediately(self, tmp_path):
        # a lockfile naming a verifiably dead pid on this host is broken
        # on sight, long before the mtime-age heuristic would fire; a
        # bare pid (an older lockfile) reads as this host's
        from repro.fabric.store import _HOST

        store = LocalDirStore(
            str(tmp_path / "s"), stale_lock_seconds=3600.0, lock_timeout=5.0
        )
        store.put("ns", "k", {"n": 0})
        lock = store.path_for("ns", "k") + ".lock"
        for n, holder in enumerate((str(self._dead_pid()), f"{_HOST} {self._dead_pid()}"), 1):
            with open(lock, "w", encoding="utf-8") as fh:
                fh.write(holder)
            out = store.update("ns", "k", lambda cur: {"n": cur["n"] + 1})
            assert out == {"n": n}
            assert store.locks_broken == n
            assert not os.path.exists(lock)

    def test_live_holder_lock_is_respected(self, tmp_path):
        # this very test holds the first lock; the second names a pid on
        # another host sharing the store, which this host cannot probe, so
        # only the mtime-age rule may break it
        store = LocalDirStore(
            str(tmp_path / "s"), stale_lock_seconds=3600.0, lock_timeout=0.2
        )
        store.put("ns", "k", {"n": 0})
        lock = store.path_for("ns", "k") + ".lock"
        for holder in (str(os.getpid()), f"elsewhere.example {self._dead_pid()}"):
            with open(lock, "w", encoding="utf-8") as fh:
                fh.write(holder)
            with pytest.raises(TimeoutError):
                store.update("ns", "k", lambda cur: {"n": cur["n"] + 1})
            assert store.locks_broken == 0
        assert store.get("ns", "k") == {"n": 0}
        os.unlink(lock)

    def test_lockfile_records_holder_pid(self, tmp_path):
        import socket

        store = LocalDirStore(str(tmp_path / "s"))
        seen = {}

        def spy(cur):
            lock = store.path_for("ns", "k") + ".lock"
            with open(lock, "r", encoding="utf-8") as fh:
                seen["holder"] = fh.read()
            return {"n": 1}

        store.update("ns", "k", spy)
        assert seen["holder"] == f"{socket.gethostname()} {os.getpid()}"


# ----------------------------------------------------------------------
class TestScopedMetrics:
    def test_scoped_calls_route_to_the_scope(self):
        metrics = ScopedMetrics()
        metrics.inc("outer")
        registry = MetricsRegistry(enabled=True)
        with metrics.scoped(registry):
            metrics.enabled = True  # routes: toggles the scope, not the process
            metrics.inc("inner")
            metrics.gauge("peak").set_max(3.0)
            metrics.histogram("wall").observe(0.2)
            metrics.merge({"counters": {"inner": 2}, "gauges": {"peak": 5.0}})
            assert metrics.enabled is True
            assert metrics.snapshot() == registry.snapshot()
            assert metrics.active_registry() is registry
            delta = metrics.snapshot_and_reset()
            assert delta["counters"] == {"inner": 3}
            assert delta["gauges"] == {"peak": 5.0}
            assert delta["histograms"]["wall"]["count"] == 1
            assert registry.snapshot() == MetricsRegistry().snapshot()
            metrics.inc("inner")
            metrics.reset()
            assert registry.snapshot()["counters"] == {}
            metrics.inc("inner")
        # the process tables saw none of it, and stay disabled
        assert metrics.snapshot() == {"counters": {"outer": 1}, "gauges": {},
                                      "histograms": {}}
        assert metrics.enabled is False
        assert registry.snapshot()["counters"] == {"inner": 1}
        assert metrics.active_registry() is None

    def test_threads_scope_independently(self):
        registries = [MetricsRegistry(enabled=True) for _ in range(2)]
        barrier = threading.Barrier(2)

        def record(i):
            with METRICS.scoped(registries[i]):
                barrier.wait(timeout=5.0)
                METRICS.inc(f"thread{i}", i + 1)

        threads = [threading.Thread(target=record, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registries[0].snapshot()["counters"] == {"thread0": 1}
        assert registries[1].snapshot()["counters"] == {"thread1": 2}

    def test_campaign_scope_folds_into_the_enclosing_registry(self):
        metrics = ScopedMetrics(enabled=True)
        with pytest.raises(RuntimeError):
            with metrics.campaign() as registry:
                assert registry.enabled and metrics.active_registry() is registry
                metrics.inc("runs")
                raise RuntimeError("campaign failed")
        with metrics.campaign():
            metrics.inc("runs")
        assert metrics.active_registry() is None
        assert metrics.snapshot()["counters"] == {"runs": 2}

    def test_local_campaign_metrics_are_isolated_between_runs(self):
        # the local twin of the fabric case below, in a process whose
        # registry starts off: each result's snapshot covers that campaign
        # only, and a campaign that asked for no metrics gets none, even
        # after one that asked for them
        configure_observability(None)
        spec = _fast_spec(sample_every=800)
        a = run_campaign(spec.with_overrides(obs=ObsConfig(metrics=True)))
        b = run_campaign(spec)
        c = run_campaign(spec.with_overrides(obs=ObsConfig(metrics=True)))
        assert a.metrics["counters"]["runs.completed"] == a.runs_executed > 0
        assert b.metrics == {}
        assert c.metrics["counters"]["runs.completed"] == c.runs_executed

    def test_campaign_metrics_are_isolated_between_runs(self, tmp_path):
        # two sequential fabric campaigns: the second result's registry
        # snapshot must not fold in the first's counters (a long-lived
        # service process drives many campaigns back to back)
        first = run_campaign(_fast_spec(fabric=FabricConfig(
            store="dir://" + str(tmp_path / "s1"), lease_size=3)))
        second = run_campaign(_fast_spec(fabric=FabricConfig(
            store="dir://" + str(tmp_path / "s2"), lease_size=3)))
        a = first.metrics["counters"]["fabric.units.executed"]
        b = second.metrics["counters"]["fabric.units.executed"]
        assert a == b > 0


# ----------------------------------------------------------------------
class TestDegradedMode:
    def test_worker_survives_store_outage_window(self, metrics):
        flaky = FlakyStore(MemoryStore(), fail=2)
        worker = FabricWorker(flaky, poll_interval=0.01)
        stats = worker.run(manifest_timeout=0.5)
        assert stats["units"] == 0
        assert metrics.counter("fabric.store_outages").value >= 1

    def test_chaos_campaign_matches_fault_free_run(self, tmp_path, monkeypatch):
        plain = run_campaign(_fast_spec())
        journal_path = str(tmp_path / "journal.jsonl")
        monkeypatch.setenv(FAULT_ENV, "fabric-store-chaos:0.1:1")
        spec = _fast_spec(
            checkpoint=journal_path,
            fabric=FabricConfig(
                store="dir://" + str(tmp_path / "store"),
                lease_ttl=4.0, lease_size=3, poll_interval=0.05,
            ),
        )
        chaotic = run_campaign(spec)
        # identical campaign outcome, injected faults notwithstanding
        assert chaotic.table1_row() == plain.table1_row()
        assert chaotic.strategies_tried == plain.strategies_tried
        assert [s.strategy_id for s, _ in chaotic.flagged] == \
            [s.strategy_id for s, _ in plain.flagged]
        # the journal recorded every result exactly once
        lines = [json.loads(line) for line in open(journal_path)][1:]
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        assert len(entries) == len(set(entries))
        assert len(entries) >= chaotic.strategies_tried > 0
        # the faults were real, and the retry layer absorbed them
        assert chaotic.metrics["counters"].get("store.retries", 0) > 0

"""The crash-safe distributed campaign fabric: artifact stores, TTL work
leases, exactly-once result accounting, and distributed campaigns that
survive SIGKILLed workers.

The expensive end-to-end checks pin the fabric's contract: a campaign
swept by crash-prone workers produces byte-identical accounting to a
plain single-process run — every result exactly once, reclaims and
duplicate commits visible in the ``fabric.*`` counters, never in the
journal.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import CampaignSpec, run_campaign
from repro.cli import main
from repro.core.cache import RunCache, run_fingerprint
from repro.core.checkpoint import CheckpointJournal
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.strategy import Strategy
from repro.fabric import (
    CampaignScopedStore,
    LeaseQueue,
    LocalDirStore,
    MemoryStore,
    ResultLedger,
    StoreCorrupt,
    load_campaign_index,
    register_campaign,
    store_for,
    unit_fingerprint,
    update_campaign,
)
from repro.fabric.config import FabricConfig
from repro.fabric.leases import NS_LEASES, NS_UNITS
from repro.fabric.store import FAULT_ENV, _TORN_NAMESPACES
from repro.fabric.worker import (
    KEY_MANIFEST,
    NS_CAMPAIGN,
    CampaignContext,
    FabricWorker,
    decode_strategy,
    encode_strategy,
)
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS

FAST = dict(duration=0.5, file_size=200_000)


def _strategy(sid, percent=50):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


def _result(sid=1, **kwargs):
    defaults = dict(strategy_id=sid, protocol="tcp", variant="linux-3.13",
                    duration=10.0, target_bytes=1234)
    defaults.update(kwargs)
    return RunResult(**defaults)


@pytest.fixture(params=["dir", "memory"])
def store(request, tmp_path):
    if request.param == "dir":
        return LocalDirStore(str(tmp_path / "store"))
    return MemoryStore()


def _tear(store, namespace, key, text):
    """Overwrite one stored document with unparseable ``text``."""
    if isinstance(store, LocalDirStore):
        with open(store.path_for(namespace, key), "w") as fh:
            fh.write(text)
    else:
        store._documents[(namespace, key)] = text


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


class TestArtifactStore:
    def test_get_absent_is_none(self, store):
        assert store.get("ns", "missing") is None

    def test_put_get_roundtrip(self, store):
        store.put("ns", "k", {"a": 1, "b": [1, 2]})
        assert store.get("ns", "k") == {"a": 1, "b": [1, 2]}
        store.put("ns", "k", {"a": 2})  # last writer wins
        assert store.get("ns", "k") == {"a": 2}

    def test_namespaces_are_disjoint(self, store):
        store.put("one", "k", {"v": 1})
        store.put("two", "k", {"v": 2})
        assert store.get("one", "k") == {"v": 1}
        assert store.get("two", "k") == {"v": 2}
        assert store.keys("one") == ["k"] and store.keys("two") == ["k"]

    def test_put_if_absent_single_winner(self, store):
        assert store.put_if_absent("ns", "k", {"winner": "first"}) is True
        assert store.put_if_absent("ns", "k", {"winner": "second"}) is False
        assert store.get("ns", "k") == {"winner": "first"}

    def test_update_creates_and_transitions(self, store):
        out = store.update("ns", "k", lambda cur: {"n": 0} if cur is None else None)
        assert out == {"n": 0}
        out = store.update("ns", "k", lambda cur: {"n": cur["n"] + 1})
        assert out == {"n": 1} and store.get("ns", "k") == {"n": 1}

    def test_update_returning_none_leaves_store_untouched(self, store):
        store.put("ns", "k", {"n": 5})
        out = store.update("ns", "k", lambda cur: None)
        assert out == {"n": 5}
        assert store.get("ns", "k") == {"n": 5}

    def test_delete_reports_who_deleted(self, store):
        store.put("ns", "k", {"v": 1})
        assert store.delete("ns", "k") is True
        assert store.delete("ns", "k") is False  # never raises on a miss
        assert store.get("ns", "k") is None

    def test_keys_sorted(self, store):
        for key in ("bb", "aa", "cc"):
            store.put("ns", key, {})
        assert store.keys("ns") == ["aa", "bb", "cc"]

    def test_corrupt_document_raises_store_corrupt(self, store, tmp_path):
        store.put("ns", "k", {"v": 1})
        _tear(store, "ns", "k", '{"v": tor')
        with pytest.raises(StoreCorrupt):
            store.get("ns", "k")
        # update() treats the torn record as absent so it stays writable
        out = store.update("ns", "k", lambda cur: {"healed": cur is None})
        assert out == {"healed": True}

    def test_torn_write_fault_fires_once_per_namespace(self, store, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "fabric-torn-write:victim")
        _TORN_NAMESPACES.discard("victim")
        try:
            store.put("victim", "k", {"payload": "x" * 64})
            with pytest.raises(StoreCorrupt):
                store.get("victim", "k")
            store.put("victim", "k", {"payload": "x" * 64})  # fault already spent
            assert store.get("victim", "k") == {"payload": "x" * 64}
            store.put("other", "k", {"v": 1})  # other namespaces untouched
            assert store.get("other", "k") == {"v": 1}
        finally:
            _TORN_NAMESPACES.discard("victim")


class TestStoreFor:
    def test_url_schemes_dispatch(self, tmp_path):
        # each backend comes inside the built-in retry wrapper
        assert isinstance(store_for("dir://" + str(tmp_path / "plain")).inner, LocalDirStore)
        backend = store_for("memory://scheme-test")
        try:
            assert isinstance(backend.inner, MemoryStore)
            # the name is an address: same name, same store
            backend.put("ns", "k", {"v": 1})
            assert store_for("memory://scheme-test").get("ns", "k") == {"v": 1}
        finally:
            MemoryStore.reset_registry()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            store_for("redis://somewhere")

    def test_addresses_without_a_scheme_rejected(self, tmp_path):
        for spec in (str(tmp_path / "plain"), "sqlite:" + str(tmp_path / "s"),
                     str(tmp_path / "x.db"), "sqlite://" + str(tmp_path / "s.db")):
            with pytest.raises(ValueError, match="dir://, memory://"):
                store_for(spec)
        assert not any(tmp_path.iterdir())  # nothing was created


class TestMultiCampaignLayout:
    def test_scoped_store_prefixes_every_namespace(self, store):
        view = CampaignScopedStore(store, "abc123")
        scoped = "campaigns/abc123/leases"
        view.put("leases", "u1", {"state": "pending"})
        assert store.get(scoped, "u1") == {"state": "pending"}
        assert view.get("leases", "u1") == {"state": "pending"}
        assert view.put_if_absent("leases", "u2", {"state": "pending"}) is True
        assert store.get(scoped, "u2") == {"state": "pending"}
        assert view.update("leases", "u1", lambda cur: {"state": "leased"}) == \
            {"state": "leased"}
        assert store.get(scoped, "u1") == {"state": "leased"}
        assert view.keys("leases") == store.keys(scoped) == ["u1", "u2"]
        assert view.delete("leases", "u2") is True
        assert store.keys(scoped) == ["u1"]
        # nothing landed outside the scope
        assert store.keys("leases") == []
        # campaigns cannot see each other's records
        other = CampaignScopedStore(store, "def456")
        assert other.get("leases", "u1") is None

    def test_campaign_index_roundtrip(self, store):
        record = {"campaign_id": "abc", "tenant": "alice", "status": "running"}
        assert register_campaign(store, "abc", record) is True
        assert register_campaign(store, "abc", {"status": "other"}) is False
        update_campaign(store, "abc", status="complete")
        index = load_campaign_index(store)
        assert index["abc"]["status"] == "complete"
        assert index["abc"]["tenant"] == "alice"
        assert index["abc"]["updated_at"] > 0


def _unit(unit_id="u1", n=2):
    return {
        "unit_id": unit_id,
        "stage": "sweep",
        "seed": 7,
        "slots": [{"fingerprint": f"fp{i}", "strategy": None} for i in range(n)],
    }


class TestLeaseQueue:
    def test_enqueue_is_idempotent(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        assert queue.enqueue(_unit()) is True
        assert queue.enqueue(_unit()) is False
        assert store.keys(NS_UNITS) == store.keys(NS_LEASES) == ["u1"]

    def test_claim_is_exclusive_until_complete(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        unit = queue.claim("alice")
        assert unit["unit_id"] == "u1"
        assert queue.claim("bob") is None  # live lease: not claimable
        queue.complete("u1", "alice")
        assert queue.claim("bob") is None  # done: never claimable again
        assert queue.states() == {"u1": "done"}

    def test_expired_lease_is_reclaimed(self, store):
        queue = LeaseQueue(store, ttl=0.1)
        queue.enqueue(_unit())
        assert queue.claim("alice") is not None
        time.sleep(0.15)
        unit = queue.claim("bob")  # alice was SIGKILLed, say
        assert unit is not None
        assert queue.counters["reclaimed"] == 1
        assert queue.reclaim_total() == 1
        lease = store.get(NS_LEASES, "u1")
        assert lease["owner"] == "bob" and lease["generation"] == 2

    def test_renew_extends_and_detects_loss(self, store):
        queue = LeaseQueue(store, ttl=0.2)
        queue.enqueue(_unit())
        queue.claim("alice")
        assert queue.renew("u1", "alice") is True
        time.sleep(0.3)
        queue.claim("bob")  # steals the expired lease
        assert queue.renew("u1", "alice") is False  # alice lost it
        assert queue.renew("u1", "bob") is True

    def test_reopen_sends_done_back_to_pending(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        queue.claim("alice")
        queue.complete("u1", "alice")
        assert queue.reopen("u1") is True
        assert queue.reopen("u1") is False  # already pending
        assert store.get(NS_LEASES, "u1")["state"] == "pending"
        assert queue.claim("bob") is not None  # re-dispatched

    def test_torn_lease_record_stays_claimable(self, store):
        queue = LeaseQueue(store, ttl=5.0)
        queue.enqueue(_unit())
        _tear(store, NS_LEASES, "u1", '{"state": "lea')
        assert queue.claim("alice") is not None  # progress beats bookkeeping

    def test_lease_reader_reads_an_unreadable_record_as_pending(self, store, monkeypatch):
        queue = LeaseQueue(store, ttl=30.0)
        queue.enqueue(_unit("u2"))
        queue.enqueue(_unit("u3"))
        assert LeaseQueue(store, ttl=0.05).claim("alice")["unit_id"] == "u2"
        time.sleep(0.1)
        assert queue.claim("bob")["unit_id"] == "u2"  # a live reclaim
        monkeypatch.setenv(FAULT_ENV, f"fabric-torn-write:{NS_LEASES}")
        _TORN_NAMESPACES.discard(NS_LEASES)
        try:
            queue.enqueue(_unit("u1"))  # its lease record is written torn
        finally:
            _TORN_NAMESPACES.discard(NS_LEASES)
        assert [unit_id for unit_id, _ in queue.leases()] == ["u1", "u2", "u3"]
        assert queue.states() == {"u1": "pending", "u2": "leased", "u3": "pending"}
        assert queue.leased_count() == 1
        assert queue.reclaim_total() == 1

    def test_claim_locks_only_a_claimable_lease(self, store, monkeypatch):
        queue = LeaseQueue(store, ttl=30.0)
        for i in range(50):
            queue.enqueue(_unit(f"u{i:02d}"))
        for _ in range(49):
            unit = queue.claim("alice")
            queue.complete(unit["unit_id"], "alice")
        locked = []
        update = store.update

        def counting_update(namespace, key, fn):
            locked.append(key)
            return update(namespace, key, fn)

        monkeypatch.setattr(store, "update", counting_update)
        assert queue.claim("bob")["unit_id"] == "u49"
        assert locked == ["u49"]  # 49 done leases were read, none locked

    def test_unit_fingerprint_is_order_and_content_sensitive(self):
        base = unit_fingerprint("spec", "sweep", ["a", "b"])
        assert unit_fingerprint("spec", "sweep", ["a", "b"]) == base
        assert unit_fingerprint("spec", "sweep", ["b", "a"]) != base
        assert unit_fingerprint("spec", "confirm", ["a", "b"]) != base
        assert unit_fingerprint("other", "sweep", ["a", "b"]) != base


class TestResultLedger:
    def test_commit_is_exactly_once(self, store, metrics):
        ledger = ResultLedger(store)
        assert ledger.commit("sweep", "fp1", _result()) is True
        assert ledger.commit("sweep", "fp1", _result(target_bytes=999)) is False
        assert (ledger.commits, ledger.duplicates) == (1, 1)
        assert ledger.fetch("sweep", "fp1") == _result()  # first commit won
        snap = metrics.snapshot()["counters"]
        assert snap["fabric.commits.new"] == 1
        assert snap["fabric.commits.duplicate"] == 1

    def test_stages_do_not_collide(self, store):
        ledger = ResultLedger(store)
        assert ledger.commit("sweep", "fp1", _result(target_bytes=1)) is True
        assert ledger.commit("confirm", "fp1", _result(target_bytes=2)) is True
        assert ledger.fetch("confirm", "fp1").target_bytes == 2

    def test_errors_roundtrip(self, store):
        ledger = ResultLedger(store)
        error = RunError(5, "ValueError", "boom", seeds=(1, 2))
        ledger.commit("sweep", "fp1", error)
        assert ledger.fetch("sweep", "fp1") == error

    def test_corrupt_record_is_dropped_not_poisonous(self, store, metrics):
        ledger = ResultLedger(store)
        ledger.commit("sweep", "fp1", _result())
        key = "sweep-fp1"
        _tear(store, "results", key, '{"stage": "sweep", "kind": "resu')
        assert ledger.fetch("sweep", "fp1") is None  # torn result = missing
        assert store.get("results", key) is None  # and deleted for re-commit
        assert ledger.commit("sweep", "fp1", _result()) is True
        assert metrics.snapshot()["counters"]["fabric.results.corrupt"] == 1

    def test_undecodable_record_is_dropped_not_poisonous(self, tmp_path, metrics):
        # bytes that are not UTF-8 are as corrupt as a torn record; only
        # outside corruption writes them (the store writes ASCII JSON)
        store = LocalDirStore(str(tmp_path / "store"))
        ledger = ResultLedger(store)
        ledger.commit("sweep", "fp1", _result())
        with open(store.path_for("results", "sweep-fp1"), "wb") as fh:
            fh.write(b'{"x": "\xff\xfe"}')
        assert ledger.fetch("sweep", "fp1") is None
        assert store.get("results", "sweep-fp1") is None
        assert metrics.snapshot()["counters"]["fabric.results.corrupt"] == 1


# ----------------------------------------------------------------------
# Satellite: N processes hammering one shared store must neither crash
# nor lose entries — this is the contention profile of a real fabric
# (put_if_absent races, concurrent corrupt-entry cleanup, lease updates).

def _hammer(spec, index, iterations, failures):
    try:
        backend = store_for(spec)
        cache = RunCache(backend)
        config = TestbedConfig()
        # fingerprints track strategy *behaviour* (params), not ids
        shared = [run_fingerprint(config, _strategy(i, percent=10 + i), 7)
                  for i in range(6)]
        for i in range(iterations):
            fp = shared[(index + i) % len(shared)]
            step = i % 4
            if step == 0:
                cache.put(fp, _result(strategy_id=index))
            elif step == 1:
                hit = cache.get(fp)
                assert hit is None or isinstance(hit, RunResult)
            elif step == 2:
                # poison the entry so racing readers all hit the cleanup path
                backend.put(RunCache.NAMESPACE, fp, {"fingerprint": "bogus"})
                cache.get(fp)
            else:
                backend.update(
                    "leases", f"shared-{i % 3}",
                    lambda cur: {"n": int((cur or {}).get("n", 0)) + 1})
        # the per-process entry must survive everyone else's churn
        mine = run_fingerprint(config, _strategy(1000 + index, percent=60 + index), 7)
        cache.put(mine, _result(strategy_id=index))
        assert isinstance(cache.get(mine), RunResult)
    except BaseException as exc:  # pragma: no cover - the failure report
        failures.put(f"process {index}: {type(exc).__name__}: {exc}")
        raise


class TestMultiProcessContention:
    def test_hammering_shared_store_survives(self, tmp_path):
        spec = f"dir://{tmp_path / 'store'}"
        ctx = multiprocessing.get_context("fork")
        failures = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer, args=(spec, index, 40, failures))
            for index in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        reported = []
        while not failures.empty():
            reported.append(failures.get())
        assert not reported, "\n".join(reported)
        assert all(proc.exitcode == 0 for proc in procs), \
            [proc.exitcode for proc in procs]
        # no lost entries: every process's private key is present and valid
        backend_store = store_for(spec)
        cache = RunCache(backend_store)
        config = TestbedConfig()
        for index in range(4):
            fp = run_fingerprint(config, _strategy(1000 + index, percent=60 + index), 7)
            assert isinstance(cache.get(fp), RunResult), f"lost entry {index}"
        # rmw counters applied atomically: every update landed
        for key in backend_store.keys("leases"):
            assert backend_store.get("leases", key)["n"] > 0


# ----------------------------------------------------------------------
# End-to-end: fabric campaigns must match plain campaigns exactly.

def _fast_spec(**overrides):
    base = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13", **FAST),
        workers=1, sample_every=500,
    )
    return base.with_overrides(**overrides) if overrides else base


def _scope(backend, spec):
    """The campaign scope ``run_campaign`` drives ``spec`` in."""
    return CampaignScopedStore(backend, spec.fingerprint()[:12])


def _plant(store_path, spec, heartbeat_age, lease_ttl):
    """Leave what a coordinator of ``spec`` that last heartbeated
    ``heartbeat_age`` seconds ago leaves behind: a running standalone
    index record and a running manifest in the campaign's scope."""
    campaign_id = spec.fingerprint()[:12]
    manifest = {
        "spec": {}, "spec_fingerprint": spec.fingerprint(),
        "status": "running",
        "fabric": FabricConfig(store=store_path, lease_ttl=lease_ttl).to_dict(),
        "created_at": time.time() - heartbeat_age - 5.0,
        "coordinator_heartbeat_at": time.time() - heartbeat_age,
    }
    backend = store_for(store_path)
    update_campaign(backend, campaign_id, tenant="default",
                    spec_fingerprint=spec.fingerprint(), status="running",
                    standalone=True, created_at=manifest["created_at"])
    _scope(backend, spec).put(NS_CAMPAIGN, KEY_MANIFEST, manifest)
    return manifest


class TestFabricCampaign:
    def test_single_process_fabric_matches_plain(self, tmp_path):
        plain = run_campaign(_fast_spec())
        spec = _fast_spec(fabric=FabricConfig(
            store=f"dir://{tmp_path / 'store'}", lease_ttl=10.0, lease_size=3))
        distributed = run_campaign(spec)
        assert distributed.table1_row() == plain.table1_row()
        assert distributed.strategies_tried == plain.strategies_tried
        assert [s.strategy_id for s, _ in distributed.flagged] == \
            [s.strategy_id for s, _ in plain.flagged]
        counters = distributed.fabric
        # every sweep strategy was committed through the ledger exactly once
        assert counters["commits"] >= plain.strategies_tried
        assert counters["commit_duplicates"] == 0
        assert counters["lease_reclaims"] == 0
        assert counters["leases_enqueued"] > 0
        # counters are mirrored into the metrics payload for --metrics-out
        assert distributed.metrics["counters"]["fabric.commits"] == counters["commits"]

    def test_participating_coordinator_splits_each_unit_across_workers(
        self, tmp_path, monkeypatch
    ):
        from repro.core.supervisor import SupervisedWorkerPool

        shapes = []
        dispatch = SupervisedWorkerPool.dispatch

        def recording_dispatch(pool, tasks):
            shapes.append(sorted(index for _, index, _ in tasks))
            return dispatch(pool, tasks)

        monkeypatch.setattr(SupervisedWorkerPool, "dispatch", recording_dispatch)
        plain = run_campaign(_fast_spec(workers=2))
        shapes.clear()
        distributed = run_campaign(_fast_spec(workers=2, fabric=FabricConfig(
            store="dir://" + str(tmp_path / "store"), lease_size=4)))
        # one dispatch per claimed unit; a 4-slot unit ships as 4 tasks,
        # one slot each, which the pool's idle workers pull in turn
        assert shapes.count([0, 1, 2, 3]) >= 2
        assert all(len(set(shape)) == len(shape) <= 4 for shape in shapes)
        assert distributed.table1_row() == plain.table1_row()
        assert distributed.strategies_tried == plain.strategies_tried
        assert [s.strategy_id for s, _ in distributed.flagged] == \
            [s.strategy_id for s, _ in plain.flagged]

    def test_fabric_journal_records_every_result_exactly_once(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        spec = _fast_spec(
            checkpoint=journal_path,
            fabric=FabricConfig(store=f"dir://{tmp_path / 'store'}", lease_size=2),
        )
        result = run_campaign(spec)
        lines = [json.loads(line) for line in open(journal_path)][1:]  # skip header
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        assert len(entries) == len(set(entries))
        assert len(entries) >= result.strategies_tried > 0

    def test_second_fabric_run_is_served_from_shared_cache(self, tmp_path):
        fabric = FabricConfig(store=f"dir://{tmp_path / 'store'}", lease_size=4)
        first = run_campaign(_fast_spec(fabric=fabric))
        again = run_campaign(_fast_spec(fabric=fabric))
        assert again.table1_row() == first.table1_row()
        # everything pre-served: nothing re-enqueued, nothing re-executed
        assert again.fabric["leases_enqueued"] == 0
        assert again.fabric["worker_units"] == 0

    def test_two_specs_share_one_store(self, tmp_path):
        # a second spec runs to completion while the first one is live
        store_path = f"dir://{tmp_path / 'store'}"
        first = _fast_spec(fabric=FabricConfig(
            store=store_path, lease_size=4, poll_interval=0.05, participate=False))
        second = _fast_spec(sample_every=700, fabric=FabricConfig(
            store=store_path, lease_size=4))
        results = {}
        thread = threading.Thread(
            target=lambda: results.update(first=run_campaign(first)), daemon=True)
        thread.start()
        backend = store_for(store_path)
        # wait until the first campaign has sharded its sweep, so only
        # one thread at a time executes runs
        deadline = time.monotonic() + 60.0
        while not _scope(backend, first).keys(NS_LEASES):
            assert time.monotonic() < deadline, "first campaign never sharded"
            time.sleep(0.05)
        results["second"] = run_campaign(second)
        assert thread.is_alive()
        # a worker drains the first campaign, then leaves with it
        FabricWorker(backend, poll_interval=0.05).run(manifest_timeout=60.0)
        thread.join(timeout=240)
        assert not thread.is_alive(), "first campaign never finished"
        index = load_campaign_index(backend)
        assert sorted(index) == sorted(s.fingerprint()[:12] for s in (first, second))
        for spec in (first, second):
            record = index[spec.fingerprint()[:12]]
            assert record["status"] == "complete" and record["standalone"] is True
            assert record["spec_fingerprint"] == spec.fingerprint()
            # each campaign keeps its manifest and ledger in its own scope
            view = _scope(backend, spec)
            manifest = view.get(NS_CAMPAIGN, KEY_MANIFEST)
            assert manifest["spec_fingerprint"] == spec.fingerprint()
            assert view.keys("results")
        # everything but the shared run cache and the index is scoped
        assert sorted(os.listdir(tmp_path / "store")) == [
            "campaign-index", "campaigns", "runs"]
        assert results["first"].strategies_tried > results["second"].strategies_tried > 0

    def test_live_same_spec_campaign_is_not_adopted(self, tmp_path):
        # same fingerprint but its coordinator is verifiably alive (fresh
        # manifest heartbeat): adopting would mean two coordinators
        # double-journaling one campaign
        from repro.fabric.coordinator import FabricMismatch

        store_path = f"dir://{tmp_path / 'store'}"
        spec = _fast_spec(fabric=FabricConfig(store=store_path, lease_ttl=30.0))
        manifest = _plant(store_path, spec, heartbeat_age=0.0, lease_ttl=30.0)
        with pytest.raises(FabricMismatch, match="heartbeat"):
            run_campaign(spec)
        # the refused coordinator leaves the live campaign's record and
        # manifest exactly as they were
        backend = store_for(store_path)
        record = load_campaign_index(backend)[spec.fingerprint()[:12]]
        assert record["status"] == "running"
        assert _scope(backend, spec).get(NS_CAMPAIGN, KEY_MANIFEST) == manifest

    def test_stale_same_spec_campaign_is_adopted(self, tmp_path):
        # ...but once the heartbeat is stale the previous coordinator is
        # gone, and adopting (resuming on the existing ledger) is safe
        store_path = f"dir://{tmp_path / 'store'}"
        spec = _fast_spec(fabric=FabricConfig(store=store_path, lease_ttl=1.0))
        first = run_campaign(spec)
        # the coordinator "crashed": its manifest still says running
        manifest = _plant(store_path, spec, heartbeat_age=60.0, lease_ttl=1.0)
        result = run_campaign(spec)
        assert result.table1_row() == first.table1_row()
        # adopted, not restarted: the manifest keeps its creation time,
        # and every result was pre-served from the ledger and the cache
        backend = store_for(store_path)
        adopted = _scope(backend, spec).get(NS_CAMPAIGN, KEY_MANIFEST)
        assert adopted["created_at"] == manifest["created_at"]
        assert adopted["status"] == "complete"
        assert result.fabric["leases_enqueued"] == 0
        assert result.fabric["worker_units"] == 0

    def test_live_coordinator_is_judged_by_its_manifest_ttl(self, tmp_path):
        # the live coordinator runs on the default 30 s TTL and beat 5 s
        # ago; a rerun with a 1 s TTL must not call that heartbeat stale
        from repro.fabric.coordinator import FabricMismatch

        store_path = f"dir://{tmp_path / 'store'}"
        live = _fast_spec(fabric=FabricConfig(store=store_path))
        _plant(store_path, live, heartbeat_age=5.0, lease_ttl=live.fabric.lease_ttl)
        with pytest.raises(FabricMismatch, match="heartbeat"):
            run_campaign(_fast_spec(fabric=FabricConfig(store=store_path, lease_ttl=1.0)))

    def test_manifest_records_the_fabric_config(self, tmp_path):
        fabric = FabricConfig(store=f"dir://{tmp_path / 'store'}", lease_ttl=12.0,
                              lease_size=3, poll_interval=0.1, stall_window=9.0)
        spec = _fast_spec(fabric=fabric)
        run_campaign(spec)
        backend = store_for(fabric.store)
        manifest = _scope(backend, spec).get(NS_CAMPAIGN, KEY_MANIFEST)
        assert manifest["fabric"] == fabric.to_dict()
        assert not {"lease_ttl", "telemetry_interval", "stall_window"} & set(manifest)

    def test_participating_coordinator_reads_each_result_once(self, tmp_path, monkeypatch):
        # one ledger read per slot before sharding (a miss on a fresh
        # store), then one per result, when its unit's lease reads done
        reads = []
        fetch = ResultLedger.fetch

        def counting_fetch(ledger, stage, fingerprint):
            outcome = fetch(ledger, stage, fingerprint)
            reads.append(outcome is not None)
            return outcome

        monkeypatch.setattr(ResultLedger, "fetch", counting_fetch)
        spec = _fast_spec(sample_every=200, fabric=FabricConfig(
            store=f"dir://{tmp_path / 'store'}", lease_size=2))
        result = run_campaign(spec)
        backend = store_for(spec.fabric.store)
        view = _scope(backend, spec)
        sharded = sum(len(view.get(NS_UNITS, key)["slots"]) for key in view.keys(NS_UNITS))
        assert sharded == result.fabric["commits"] >= 10
        assert reads.count(False) == sharded
        assert reads.count(True) == sharded
        assert result.fabric["leases_reopened"] == 0

    def test_coordinator_progresses_while_result_reads_fail(self, tmp_path, monkeypatch):
        # 30% of result reads raise (seeded); lease reads and every write
        # succeed.  The coordinator must keep collecting and executing
        # units, and journal every slot exactly once.
        import errno
        import random

        rng = random.Random(7)
        faults = []
        get = LocalDirStore.get

        def flaky_get(store, namespace, key):
            if namespace.endswith("/results") and rng.random() < 0.3:
                faults.append(key)
                raise OSError(errno.EIO, "injected result read fault")
            return get(store, namespace, key)

        monkeypatch.setattr(LocalDirStore, "get", flaky_get)
        journal_path = str(tmp_path / "journal.jsonl")
        spec = _fast_spec(sample_every=200, checkpoint=journal_path, fabric=FabricConfig(
            store=f"dir://{tmp_path / 'store'}", lease_size=2, poll_interval=0.01))
        results = {}
        thread = threading.Thread(
            target=lambda: results.update(result=run_campaign(spec)), daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "coordinator stalled under failing result reads"
        assert faults and results["result"].strategies_tried == 20
        lines = [json.loads(line) for line in open(journal_path)][1:]
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        backend = store_for(spec.fabric.store)
        committed = len(_scope(backend, spec).keys("results"))
        assert len(entries) == len(set(entries)) == committed == 20

    def test_torn_result_reopens_its_unit_and_journals_once(self, tmp_path, monkeypatch):
        from repro.snap.compare import compare_journals

        plain_path = str(tmp_path / "plain.jsonl")
        plain = run_campaign(_fast_spec(sample_every=200, checkpoint=plain_path))
        torn_path = str(tmp_path / "torn.jsonl")
        spec = _fast_spec(sample_every=200, checkpoint=torn_path, fabric=FabricConfig(
            store=f"dir://{tmp_path / 'store'}", lease_size=2))
        namespace = f"campaigns/{spec.fingerprint()[:12]}/results"
        monkeypatch.setenv(FAULT_ENV, f"fabric-torn-write:{namespace}")
        _TORN_NAMESPACES.discard(namespace)
        try:
            result = run_campaign(spec)
        finally:
            _TORN_NAMESPACES.discard(namespace)
        assert result.fabric["leases_reopened"] >= 1
        assert result.table1_row() == plain.table1_row()

        def keys(path):
            lines = [json.loads(line) for line in open(path)][1:]
            return [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]

        assert len(keys(torn_path)) == len(set(keys(torn_path)))
        assert sorted(keys(torn_path)) == sorted(keys(plain_path))
        # the re-run restored the torn slot from the cache its first
        # execution filled, and the coordinator journals it as executed
        identical, report = compare_journals(plain_path, torn_path)
        assert identical, report
        assert result.runs_executed == plain.runs_executed
        assert result.cache_hits == plain.cache_hits == 0

    def test_unit_restores_slots_cached_after_its_pre_serve(self, tmp_path):
        # a campaign sharing the store's run cache may finish a slot while
        # another campaign's unit for it waits in the queue; the unit then
        # restores the slot instead of simulating it again
        backend = store_for(f"dir://{tmp_path / 'store'}")
        spec = _fast_spec()
        manifest = {"spec": spec.to_dict(), "fabric": {"telemetry_interval": 0}}
        worker = FabricWorker(backend, workers=1)
        strategy = _strategy(42)
        fingerprint = run_fingerprint(spec.testbed, strategy, 7)
        unit = {"unit_id": "u1", "stage": "sweep", "seed": 7, "slots": [
            {"fingerprint": fingerprint, "strategy": encode_strategy(strategy)}]}
        restored = []
        for campaign_id in ("first", "second"):
            ctx = CampaignContext(worker, campaign_id, manifest)
            ctx.queue.enqueue(unit)
            try:
                assert worker.run_one(ctx, ctx.pool())
            finally:
                ctx.close()
            restored.append(ctx.ledger.fetch("sweep", fingerprint).cached)
        assert restored == [False, True]

    def test_strategy_codec_roundtrips(self):
        strategy = _strategy(42, percent=75)
        assert decode_strategy(encode_strategy(strategy)) == strategy
        assert decode_strategy(encode_strategy(None)) is None
        assert encode_strategy(None) is None


# ----------------------------------------------------------------------
# Chaos: real worker processes serving a real coordinator, one of them
# dying SIGKILL-style (``os._exit``) mid-unit with an uncommitted slot.
# The survivor must reclaim the dead worker's lease and the campaign must
# account every result exactly once anyway.

class TestFabricChaos:
    def _spawn_worker(self, store_path, fault=None, metrics_out=None):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_TEST_FAULT", None)
        if fault:
            env["REPRO_TEST_FAULT"] = fault
        argv = [sys.executable, "-m", "repro", "worker", "--store", store_path,
                "--workers", "1", "--manifest-timeout", "60", "--idle-exit", "10",
                "--poll", "0.05"]
        if metrics_out:
            argv += ["--metrics-out", metrics_out]
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def test_worker_killed_mid_sweep_is_reclaimed_exactly_once(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        journal_path = str(tmp_path / "journal.jsonl")
        metrics_path = str(tmp_path / "healthy-metrics.json")
        spec = _fast_spec(
            checkpoint=journal_path,
            fabric=FabricConfig(store=store_path, lease_ttl=1.5, lease_size=2,
                                poll_interval=0.1, participate=False),
        )
        # the coordinator only shards, collects, and journals; all unit
        # execution belongs to the worker processes below
        holder = {}
        coordinator = threading.Thread(
            target=lambda: holder.update(result=run_campaign(spec)), daemon=True)
        coordinator.start()
        procs = []
        try:
            # worker 1 commits one slot of its two-slot unit, then dies the
            # hard way (os._exit, no cleanup) — a SIGKILL stand-in
            faulty = self._spawn_worker(store_path, fault="fabric-commit-crash:1")
            procs.append(faulty)
            faulty.wait(timeout=120)
            assert faulty.returncode == 117
            # worker 2 arrives afterwards, drains the queue, and reclaims
            # the dead worker's expired lease
            healthy = self._spawn_worker(store_path, metrics_out=metrics_path)
            procs.append(healthy)
            coordinator.join(timeout=240)
            assert not coordinator.is_alive(), "coordinator never finished"
            healthy.wait(timeout=60)
            assert healthy.returncode == 0
        finally:
            for proc in procs:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
        result = holder["result"]
        counters = result.fabric
        assert counters["lease_reclaims"] >= 1, counters
        # the reclaimed unit's already-committed slot surfaced as a counted
        # duplicate in the surviving worker, never as a second result
        healthy_counters = json.load(open(metrics_path))["counters"]
        assert healthy_counters.get("fabric.commits.duplicate", 0) >= 1
        assert healthy_counters.get("fabric.leases.reclaimed", 0) >= 1
        # exactly-once accounting: journal and campaign totals look as if
        # the crash never happened
        plain = run_campaign(_fast_spec())
        assert result.table1_row() == plain.table1_row()
        assert result.strategies_tried == plain.strategies_tried
        lines = [json.loads(line) for line in open(journal_path)][1:]
        entries = [(rec["stage"], rec["outcome"]["strategy_id"]) for rec in lines]
        assert len(entries) == len(set(entries))
        assert len(entries) >= result.strategies_tried > 0


class TestWorkerExitRule:
    def test_worker_leaves_when_its_standalone_campaign_ends(self, tmp_path):
        # no idle_exit: only the exit rule can end this worker's loop
        store_path = f"dir://{tmp_path / 'store'}"
        spec = _fast_spec(fabric=FabricConfig(
            store=store_path, lease_size=2, poll_interval=0.05,
            participate=False, telemetry_interval=0.0))
        backend = store_for(store_path)
        worker = FabricWorker(backend, poll_interval=0.05)
        ended = {}

        def serve():
            worker.run(manifest_timeout=60.0)
            ended["worker"] = time.monotonic()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        result = run_campaign(spec)
        ended["campaign"] = time.monotonic()
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker outlived its campaign"
        assert ended["worker"] - ended["campaign"] < 1.0
        assert worker.stats["units"] == result.fabric["leases_enqueued"] > 0
        assert worker.served_campaigns == {spec.fingerprint()[:12]}

    def test_worker_exits_when_every_campaign_is_over(self, tmp_path):
        store_path = f"dir://{tmp_path / 'store'}"
        run_campaign(_fast_spec(fabric=FabricConfig(store=store_path)))
        backend = store_for(store_path)
        started = time.monotonic()
        stats = FabricWorker(backend, poll_interval=0.05).run(manifest_timeout=30.0)
        # the campaign was already over: no wait for the manifest timeout
        assert time.monotonic() - started < 5.0
        assert stats["units"] == 0


# ----------------------------------------------------------------------
# CLI surface.

class TestWorkerCli:
    def test_worker_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "worker", "--store", "dir://s", "--workers", "2", "--once",
            "--idle-exit", "3", "--manifest-timeout", "9", "--poll", "0.1",
        ])
        assert args.store == "dir://s" and args.workers == 2 and args.once
        assert args.idle_exit == 3.0 and args.manifest_timeout == 9.0

    def test_worker_requires_store(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["worker"])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_worker_without_campaign_exits_cleanly(self, tmp_path, capsys):
        rc = main(["worker", "--store", f"dir://{tmp_path / 'store'}",
                   "--manifest-timeout", "0.1"])
        assert rc == 0

    def test_campaign_fabric_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "campaign", "--fabric", "--store", "dir://s",
            "--lease-ttl", "5", "--lease-size", "2",
        ])
        assert args.fabric and args.store == "dir://s"
        assert args.lease_ttl == 5.0 and args.lease_size == 2


class TestFabricConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FabricConfig(store="s", lease_ttl=0)
        with pytest.raises(ValueError):
            FabricConfig(store="s", lease_size=0)
        with pytest.raises(ValueError):
            FabricConfig(store="")

    def test_spec_roundtrip_and_fingerprint_neutrality(self, tmp_path):
        spec = _fast_spec(fabric=FabricConfig(store="s", lease_ttl=5.0))
        restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # distribution is an execution knob: identity is unchanged
        assert spec.fingerprint() == _fast_spec().fingerprint()


class TestObservabilityAfterFabric:
    def test_process_registry_counts_after_a_fabric_campaign(self):
        # the drive thread applies the campaign's ObsConfig to its scoped
        # registry; applying the same config afterwards must still enable
        # the process registry, or every `if METRICS.enabled:` drops
        obs = ObsConfig(metrics=True)
        configure_observability(None)
        try:
            run_campaign(CampaignSpec(
                testbed=TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", **FAST),
                workers=1, sample_every=1600, obs=obs,
                fabric=FabricConfig(store="memory://obs-after-fabric")))
            configure_observability(obs)
            METRICS.reset()
            cache = RunCache(MemoryStore())
            assert cache.get(run_fingerprint(TestbedConfig(), _strategy(1), 7)) is None
            assert METRICS.snapshot()["counters"]["cache.misses"] == 1
        finally:
            configure_observability(None)
            METRICS.reset()
            MemoryStore.reset_registry()

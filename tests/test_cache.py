"""Content-addressed run cache: fingerprints, hit/miss/corrupt behaviour,
batched dispatch, and the cached end-to-end campaign."""

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core.cache import CACHE_VERSION, RunCache, _digest, canonical_json, run_fingerprint
from repro.core.controller import CONFIRM_SEED_OFFSET
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.generation import GenerationConfig, StrategyGenerator, dedupe_strategies
from repro.core.parallel import RetryPolicy, run_strategies
from repro.core.strategy import Strategy
from repro.core.supervisor import SupervisedWorkerPool, SupervisionConfig
from repro.netsim.chaos import ChaosConfig
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine


def _strategy(sid, percent=50):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


def _reference_fingerprint(config, strategy, seed):
    """The fingerprint formula spelled out: one canonical JSON document of
    version, config, strategy form and seed, hashed whole."""
    return _digest({
        "v": CACHE_VERSION,
        "config": config.to_dict(),
        "strategy": strategy.canonical_form() if strategy is not None else None,
        "seed": config.seed if seed is None else seed,
    })


#: protocol -> (variant, header format, state machine, observed pairs)
GENERATORS = {
    "tcp": ("linux-3.13", TCP_FORMAT, tcp_state_machine,
            [("ESTABLISHED", "ACK"), ("CLOSED", "SYN")]),
    "dccp": ("linux-3.13-dccp", DCCP_FORMAT, dccp_state_machine,
             [("OPEN", "ACK"), ("CLOSED", "REQUEST")]),
}


def _family_sample(protocol, every=7):
    """Every ``every``-th generated strategy of each (kind, action) family."""
    _variant, header_format, machine, pairs = GENERATORS[protocol]
    families = {}
    for strategy in StrategyGenerator(protocol, header_format, machine()).generate(pairs):
        families.setdefault((strategy.kind, strategy.action), []).append(strategy)
    return [s for family in families.values() for s in family[::every]]


def _result(sid=1, **kwargs):
    defaults = dict(strategy_id=sid, protocol="tcp", variant="linux-3.13",
                    duration=10.0, target_bytes=1234)
    defaults.update(kwargs)
    return RunResult(**defaults)


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


class TestFingerprints:
    def test_same_inputs_same_fingerprint(self):
        config = TestbedConfig()
        assert run_fingerprint(config, _strategy(1), 7) == \
            run_fingerprint(config, _strategy(1), 7)

    def test_strategy_id_does_not_leak_into_fingerprint(self):
        config = TestbedConfig()
        assert run_fingerprint(config, _strategy(1), 7) == \
            run_fingerprint(config, _strategy(999), 7)

    def test_params_config_and_seed_do(self):
        config = TestbedConfig()
        base = run_fingerprint(config, _strategy(1, 50), 7)
        assert run_fingerprint(config, _strategy(1, 75), 7) != base
        assert run_fingerprint(config, _strategy(1, 50), 8) != base
        assert run_fingerprint(TestbedConfig(seed=99), _strategy(1, 50), 7) != base

    def test_seed_none_normalizes_to_config_seed(self):
        config = TestbedConfig(seed=7)
        assert run_fingerprint(config, None, None) == run_fingerprint(config, None, 7)

    def test_baseline_run_has_its_own_fingerprint(self):
        config = TestbedConfig()
        assert run_fingerprint(config, None, 7) != run_fingerprint(config, _strategy(1), 7)

    def test_canonical_json_is_order_and_tuple_insensitive(self):
        assert canonical_json({"b": (1, 2), "a": 1}) == canonical_json({"a": 1, "b": [1, 2]})

    @pytest.mark.parametrize("protocol", sorted(GENERATORS))
    def test_matches_the_reference_formula(self, protocol):
        variant = GENERATORS[protocol][0]
        strategies = _family_sample(protocol)
        assert {s.kind for s in strategies} == {"packet", "inject", "hitseqwindow"}
        configs = [TestbedConfig(protocol=protocol, variant=variant),
                   TestbedConfig(protocol=protocol, variant=variant,
                                 chaos=ChaosConfig(drop=0.01))]
        for config in configs:
            for seed in (None, 5007, config.seed + CONFIRM_SEED_OFFSET):
                for strategy in [None] + strategies:
                    assert run_fingerprint(config, strategy, seed) == \
                        _reference_fingerprint(config, strategy, seed)

    def test_strategy_key_is_the_canonical_json_of_its_form(self):
        for strategy in _family_sample("tcp") + _family_sample("dccp"):
            assert strategy.canonical_key == canonical_json(strategy.canonical_form())

    def test_every_config_field_moves_the_fingerprint(self):
        def moved(value):
            if value is None:
                return 1
            return value + ("-x" if isinstance(value, str) else 1)

        strategy = _strategy(1)
        config = TestbedConfig()
        base = run_fingerprint(config, strategy, 7)
        for f in fields(TestbedConfig):
            value = ChaosConfig() if f.name == "chaos" else moved(getattr(config, f.name))
            assert run_fingerprint(replace(config, **{f.name: value}), strategy, 7) != base, \
                f.name
        chaotic = TestbedConfig(chaos=ChaosConfig())
        base = run_fingerprint(chaotic, strategy, 7)
        for f in fields(ChaosConfig):
            chaos = replace(chaotic.chaos, **{f.name: getattr(chaotic.chaos, f.name) + 0.01})
            assert run_fingerprint(replace(chaotic, chaos=chaos), strategy, 7) != base, f.name

    @pytest.mark.parametrize("order", [(10, 10.0), (10.0, 10)])
    def test_equal_configs_keep_their_own_spelling(self, order):
        # 10 == 10.0, but the two encode differently: the canonical JSON is
        # kept per instance, so neither spelling sets the other's fingerprint
        configs = [TestbedConfig(duration=duration) for duration in order]
        assert configs[0] == configs[1]
        got = [run_fingerprint(config, None, 7) for config in configs]
        assert got == [_reference_fingerprint(config, None, 7) for config in configs]
        assert got[0] != got[1]

    def test_concurrent_first_reads_agree(self):
        # the service fingerprints one testbed from several campaign
        # threads; racing first reads of the fresh memos must agree
        config, strategies = TestbedConfig(), _family_sample("tcp", every=50)
        expected = [_reference_fingerprint(config, s, 7) for s in strategies]

        def fingerprints():
            return [run_fingerprint(config, s, 7) for s in strategies]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(fingerprints) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_configs_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            TestbedConfig().duration = 5.0
        with pytest.raises(FrozenInstanceError):
            ChaosConfig().drop = 0.5

    def test_campaign_fingerprint_tracks_outcome_affecting_fields(self):
        spec = CampaignSpec(sample_every=25, retry=RetryPolicy(retries=1))
        base = spec.fingerprint()
        assert spec.with_overrides(sample_every=50).fingerprint() != base
        assert spec.with_overrides(confirm=False).fingerprint() != base
        assert spec.with_overrides(retry=RetryPolicy(retries=2)).fingerprint() != base
        assert spec.with_overrides(
            generation=GenerationConfig(drop_percents=(1,))).fingerprint() != base
        # None means protocol defaults: equal to an explicit default config
        assert spec.with_overrides(generation=GenerationConfig()).fingerprint() == base


class TestRunCache:
    def test_miss_then_hit(self, tmp_path, metrics):
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        assert cache.get(fp) is None
        assert cache.put(fp, _result())
        restored = cache.get(fp)
        assert restored == _result(cached=True)
        assert restored.cached
        snap = metrics.snapshot()["counters"]
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1
        assert snap["cache.stores"] == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path, metrics):
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        # a torn write, and bytes that are not UTF-8 (outside corruption
        # only: the store writes ASCII JSON)
        damages = (b'{"fingerprint": "torn', b'{"x": "\xff\xfe"}')
        for damage in damages:
            cache.put(fp, _result())
            with open(cache.path_for(fp), "wb") as fh:
                fh.write(damage)
            assert cache.get(fp) is None
            assert not os.path.exists(cache.path_for(fp))
        assert metrics.snapshot()["counters"]["cache.corrupt"] == len(damages)

    def test_read_error_is_a_miss_that_keeps_the_entry(self, tmp_path, metrics):
        # a transient EIO says nothing about the entry: it is a miss, the
        # entry survives, and nothing counts as corrupt
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        cache.put(fp, _result())
        get = cache.store.get
        faults = [OSError(5, "injected EIO")]

        def failing_get(namespace, key):
            if faults:
                raise faults.pop()
            return get(namespace, key)

        cache.store.get = failing_get
        assert cache.get(fp) is None
        assert os.path.exists(cache.path_for(fp))
        assert "cache.corrupt" not in metrics.snapshot()["counters"]
        assert cache.get(fp) == _result(cached=True)  # the next read hits

    def test_entry_for_wrong_fingerprint_is_corrupt(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        other = run_fingerprint(TestbedConfig(), _strategy(1, 75), 7)
        cache.put(fp, _result())
        os.makedirs(os.path.dirname(cache.path_for(other)), exist_ok=True)
        os.replace(cache.path_for(fp), cache.path_for(other))
        assert cache.get(other) is None  # payload names a different fingerprint

    def test_only_clean_first_attempt_successes_are_cacheable(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        fp = "ab" * 16
        assert not cache.put(fp, _result(attempts=2))
        assert not cache.put(fp, _result(timed_out=True))
        assert not cache.put(fp, RunError(1, "ValueError", "boom"))
        assert cache.get(fp) is None
        assert cache.put(fp, _result())

    def test_restored_copy_is_not_premarked_cached(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        fp = "cd" * 16
        marked = _result()
        marked.cached = True  # e.g. caching a result that was itself restored
        cache.put(fp, marked)
        entry = json.load(open(cache.path_for(fp)))
        assert entry["outcome"]["cached"] is False
        assert cache.get(fp).cached is True

    def test_len_counts_entries(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        assert len(cache) == 0
        cache.put("ab" * 16, _result())
        cache.put("cd" * 16, _result())
        assert len(cache) == 2

    def test_losing_the_corrupt_cleanup_race_is_quiet(self, tmp_path, metrics):
        # two processes can race to delete the same corrupt entry; the one
        # whose unlink comes second must neither crash nor double-count
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        cache.put(fp, _result())
        with open(cache.path_for(fp), "w") as fh:
            fh.write('{"fingerprint": "torn')
        racer = RunCache(cache.store)  # same store, pre-deleted underneath
        os.unlink(cache.path_for(fp))
        assert racer.get(fp) is None  # raced: entry vanished mid-cleanup
        snap = metrics.snapshot()["counters"]
        assert snap["cache.misses"] == 1
        assert "cache.corrupt" not in snap  # the other racer counts it

    def test_failed_cleanup_of_a_corrupt_entry_is_a_miss(self, metrics):
        # a store out of retries can fail the delete too; get still
        # answers a miss and counts no corruption
        from repro.fabric.store import MemoryStore, StoreCorrupt

        class Unhealable(MemoryStore):
            def get(self, namespace, key):
                raise StoreCorrupt("torn document")

            def delete(self, namespace, key):
                raise OSError("store unavailable")

        assert RunCache(Unhealable()).get("ab" * 16) is None
        snap = metrics.snapshot()["counters"]
        assert snap["cache.misses"] == 1
        assert "cache.corrupt" not in snap

    def test_concurrent_cleanup_counts_the_delete_once(self, tmp_path, metrics):
        cache = RunCache(str(tmp_path / "c"))
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        cache.put(fp, _result())
        with open(cache.path_for(fp), "w") as fh:
            fh.write('{"fingerprint": "torn')
        racer = RunCache(cache.store)
        assert cache.get(fp) is None and racer.get(fp) is None
        snap = metrics.snapshot()["counters"]
        assert snap["cache.corrupt"] == 1  # exactly one deleter takes credit
        assert snap["cache.misses"] == 2

    def test_cache_runs_on_a_memory_store(self, metrics):
        from repro.fabric.store import MemoryStore

        store = MemoryStore()
        cache = RunCache(store)
        fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
        assert cache.get(fp) is None
        assert cache.put(fp, _result())
        assert cache.get(fp) == _result(cached=True)
        assert len(cache) == 1
        with pytest.raises(TypeError):
            cache.path_for(fp)  # in-memory documents have no filesystem path
        # corrupt documents heal exactly like corrupt files
        store.put(RunCache.NAMESPACE, fp, {"fingerprint": "bogus"})
        assert cache.get(fp) is None
        assert store.get(RunCache.NAMESPACE, fp) is None
        assert metrics.snapshot()["counters"]["cache.corrupt"] == 1


class TestCachedDispatch:
    CONFIG = TestbedConfig(protocol="tcp", variant="linux-3.13")

    def test_warm_run_executes_nothing(self, tmp_path, metrics):
        cache = RunCache(str(tmp_path / "c"))
        strategies = [_strategy(1, 25), _strategy(2, 50)]
        obs = ObsConfig(metrics=True)
        cold = run_strategies(self.CONFIG, strategies, workers=1, cache=cache, obs=obs)
        assert metrics.snapshot()["counters"]["runs.completed"] == 2
        METRICS.reset()
        warm = run_strategies(self.CONFIG, strategies, workers=1, cache=cache, obs=obs)
        snap = metrics.snapshot()["counters"]
        assert snap["cache.hits"] == 2
        assert "runs.completed" not in snap  # zero simulator executions
        assert all(r.cached for r in warm)
        assert [r.target_bytes for r in warm] == [r.target_bytes for r in cold]

    def test_cache_hit_restamps_current_strategy_id(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        run_strategies(self.CONFIG, [_strategy(1)], workers=1, cache=cache)
        # same behaviour, different enumeration id -> same fingerprint
        warm = run_strategies(self.CONFIG, [_strategy(42)], workers=1, cache=cache)
        assert warm[0].cached
        assert warm[0].strategy_id == 42

    def test_on_result_fires_for_cache_hits(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        run_strategies(self.CONFIG, [_strategy(1)], workers=1, cache=cache)
        seen = []
        run_strategies(self.CONFIG, [_strategy(1)], workers=1, cache=cache,
                       on_result=lambda i, o: seen.append((i, o.cached)))
        assert seen == [(0, True)]

    def test_errors_are_not_cached(self, tmp_path):
        bad = _strategy(1, 150)  # DropAction rejects percent > 100
        cache = RunCache(str(tmp_path / "c"))
        first = run_strategies(self.CONFIG, [bad], workers=1, cache=cache)
        second = run_strategies(self.CONFIG, [bad], workers=1, cache=cache)
        assert isinstance(first[0], RunError)
        assert isinstance(second[0], RunError)
        assert len(cache) == 0


class TestBatchedDispatch:
    CONFIG = TestbedConfig(protocol="tcp", variant="linux-3.13")

    def _strategies(self, n=5):
        return [_strategy(i + 1, 10 + 10 * i) for i in range(n)]

    def test_batched_results_align_with_unbatched(self):
        strategies = self._strategies()
        in_process = run_strategies(self.CONFIG, strategies, workers=1)
        with SupervisedWorkerPool(workers=2) as pool:
            pulled = run_strategies(self.CONFIG, strategies, pool=pool)
        assert [o.strategy_id for o in pulled] == [s.strategy_id for s in strategies]
        for a, b in zip(in_process, pulled):
            assert type(a) is type(b)
            assert a.target_bytes == b.target_bytes
            assert a.server1_census == b.server1_census

    def test_each_slot_ships_as_one_task(self, metrics):
        # idle workers pull one slot at a time, and each slot times its own
        # dispatch latency
        with SupervisedWorkerPool(workers=2, supervision=SupervisionConfig()) as pool:
            results = run_strategies(self.CONFIG, self._strategies(4), pool=pool,
                                     obs=ObsConfig(metrics=True))
        assert all(isinstance(o, RunResult) for o in results)
        snap = metrics.snapshot()
        assert snap["counters"]["dispatch.batches"] == 4
        assert snap["histograms"]["dispatch.latency_seconds"]["count"] == 4

    def test_pool_reuse_across_calls(self):
        with SupervisedWorkerPool(workers=2) as pool:
            first = run_strategies(self.CONFIG, self._strategies(2), pool=pool)
            second = run_strategies(self.CONFIG, self._strategies(2), pool=pool,
                                    seed=12345, stage="confirm")
        assert all(isinstance(o, RunResult) for o in first + second)


class TestDedup:
    def test_duplicates_collapse_to_first_occurrence(self):
        a, b, c = _strategy(1, 50), _strategy(2, 50), _strategy(3, 75)
        report = dedupe_strategies([a, b, c])
        assert report.unique == [a, c]
        assert report.collapsed == {2: 1}
        assert report.collapsed_count == 1

    def test_distinct_params_survive(self):
        report = dedupe_strategies([_strategy(1, 10), _strategy(2, 20)])
        assert len(report.unique) == 2
        assert report.collapsed == {}

    def test_default_campaign_enumeration_has_no_duplicates(self):
        from repro.core.generation import StrategyGenerator
        from repro.packets.tcp import TCP_FORMAT
        from repro.statemachine.specs import tcp_state_machine

        generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
        strategies = generator.generate([("ESTABLISHED", "ACK")])
        assert dedupe_strategies(strategies).collapsed_count == 0

    def test_clamped_strides_do_collapse(self):
        from repro.core.generation import StrategyGenerator
        from repro.packets.tcp import TCP_FORMAT
        from repro.statemachine.specs import tcp_state_machine

        # a tiny receive window clamps every stride divisor to stride=1,
        # making the divisor sweeps parameter-equivalent
        config = GenerationConfig(receive_window=1, sequence_space=16)
        generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine(), config)
        report = dedupe_strategies(generator.hitseqwindow_strategies())
        assert report.collapsed_count > 0


class TestCachedCampaign:
    """The acceptance criterion: a repeated identical campaign with a cache
    executes zero simulations, verified via cache.hits/cache.misses."""

    def test_repeat_campaign_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        obs = ObsConfig(metrics=True)
        spec = CampaignSpec(testbed=config, workers=1, sample_every=500,
                            cache_dir=cache_dir, obs=obs)
        cold = run_campaign(spec)
        cold_counters = cold.metrics["counters"]
        assert cold_counters["cache.misses"] > 0
        assert cold_counters["runs.completed"] > 0
        assert cold.cache_hits == 0

        METRICS.reset()  # the registry is global; isolate the warm run's counters
        warm = run_campaign(spec)
        warm_counters = warm.metrics["counters"]
        assert warm_counters.get("cache.misses", 0) == 0
        assert warm_counters.get("runs.completed", 0) == 0  # zero executions
        assert warm_counters["cache.hits"] == warm.cache_hits > 0
        assert warm.table1_row() == cold.table1_row()
        assert warm.health_row()["cache_hits"] == warm.cache_hits
        configure_observability(None)
        METRICS.reset()

    def test_changed_config_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = CampaignSpec(testbed=TestbedConfig(seed=7), workers=1,
                            sample_every=500, cache_dir=cache_dir)
        run_campaign(spec)
        other = run_campaign(spec.with_overrides(testbed=TestbedConfig(seed=8)))
        assert other.cache_hits == 0

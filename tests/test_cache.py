"""Content-addressed run cache: fingerprints, hit/miss/corrupt behaviour,
batched dispatch, and the cached end-to-end campaign."""

import json
import os

import pytest

from repro.core.cache import (
    RunCache,
    campaign_fingerprint,
    canonical_json,
    run_fingerprint,
)
from repro.core.controller import Controller
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.generation import GenerationConfig, dedupe_strategies
from repro.core.parallel import run_strategies
from repro.core.strategy import Strategy
from repro.core.supervisor import SupervisedWorkerPool, SupervisionConfig
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS


def _strategy(sid, percent=50):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


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

    def test_campaign_fingerprint_tracks_outcome_affecting_fields(self):
        config = TestbedConfig()
        base = campaign_fingerprint(config, None, 25, True, 1)
        assert campaign_fingerprint(config, None, 50, True, 1) != base
        assert campaign_fingerprint(config, None, 25, False, 1) != base
        assert campaign_fingerprint(config, None, 25, True, 2) != base
        assert campaign_fingerprint(config, GenerationConfig(drop_percents=(1,)),
                                    25, True, 1) != base
        # None means protocol defaults: equal to an explicit default config
        assert campaign_fingerprint(config, GenerationConfig(), 25, True, 1) == base


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
        cache.put(fp, _result())
        with open(cache.path_for(fp), "w") as fh:
            fh.write('{"fingerprint": "torn')
        assert cache.get(fp) is None
        assert not os.path.exists(cache.path_for(fp))
        assert metrics.snapshot()["counters"]["cache.corrupt"] == 1

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

    def test_cache_runs_on_a_sqlite_store(self, tmp_path, metrics):
        from repro.fabric.store import SQLiteStore

        with SQLiteStore(str(tmp_path / "cache.db")) as store:
            cache = RunCache(store)
            fp = run_fingerprint(TestbedConfig(), _strategy(1), 7)
            assert cache.get(fp) is None
            assert cache.put(fp, _result())
            assert cache.get(fp) == _result(cached=True)
            assert len(cache) == 1
            with pytest.raises(TypeError):
                cache.path_for(fp)  # rows have no filesystem path
            # corrupt rows heal exactly like corrupt files
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
        unbatched = run_strategies(self.CONFIG, strategies, workers=1, batch_size=1)
        with SupervisedWorkerPool(workers=2) as pool:
            batched = run_strategies(self.CONFIG, strategies, pool=pool, batch_size=2)
        assert [o.strategy_id for o in batched] == [s.strategy_id for s in strategies]
        for a, b in zip(unbatched, batched):
            assert type(a) is type(b)
            assert a.target_bytes == b.target_bytes
            assert a.server1_census == b.server1_census

    def test_batch_size_histogram_recorded(self, metrics):
        run_strategies(self.CONFIG, self._strategies(5), workers=1, batch_size=2,
                       obs=ObsConfig(metrics=True))
        snap = metrics.snapshot()
        assert snap["counters"]["dispatch.batches"] == 3  # 2 + 2 + 1
        histogram = snap["histograms"]["dispatch.batch_size"]
        assert histogram["count"] == 3
        assert histogram["max"] == 2

    def test_small_dispatch_split_across_workers(self, metrics):
        # 4 slots under a batch_size of 8 would be one batch on one worker;
        # the batch is capped at ceil(4 / 2) so both workers get half
        with SupervisedWorkerPool(workers=2, supervision=SupervisionConfig()) as pool:
            results = run_strategies(self.CONFIG, self._strategies(4), pool=pool,
                                     batch_size=8, obs=ObsConfig(metrics=True))
        assert all(isinstance(o, RunResult) for o in results)
        snap = metrics.snapshot()
        assert snap["counters"]["dispatch.batches"] == 2
        histogram = snap["histograms"]["dispatch.batch_size"]
        assert histogram["count"] == 2
        assert histogram["min"] == histogram["max"] == 2

    def test_pool_reuse_across_calls(self):
        with SupervisedWorkerPool(workers=2) as pool:
            first = run_strategies(self.CONFIG, self._strategies(2), pool=pool)
            second = run_strategies(self.CONFIG, self._strategies(2), pool=pool,
                                    seed=12345, stage="confirm")
        assert all(isinstance(o, RunResult) for o in first + second)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            run_strategies(self.CONFIG, self._strategies(2), workers=1, batch_size=0)
        with pytest.raises(ValueError):
            Controller(self.CONFIG, batch_size=0)


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
        cold = Controller(config, workers=1, sample_every=500,
                          cache_dir=cache_dir, obs=obs).run_campaign()
        cold_counters = cold.metrics["counters"]
        assert cold_counters["cache.misses"] > 0
        assert cold_counters["runs.completed"] > 0
        assert cold.cache_hits == 0

        METRICS.reset()  # the registry is global; isolate the warm run's counters
        warm = Controller(config, workers=1, sample_every=500,
                          cache_dir=cache_dir, obs=obs).run_campaign()
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
        Controller(TestbedConfig(seed=7), workers=1, sample_every=500,
                   cache_dir=cache_dir).run_campaign()
        other = Controller(TestbedConfig(seed=8), workers=1, sample_every=500,
                           cache_dir=cache_dir).run_campaign()
        assert other.cache_hits == 0

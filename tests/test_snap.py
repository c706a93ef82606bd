"""Snapshot/fork engine: fork-vs-full equivalence, elision, the
determinism guard, cache eviction, journal comparison, and the
simulator/header support surfaces the engine leans on."""

import json

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core.checkpoint import CheckpointJournal
from repro.core.executor import Executor, RunResult, TestbedConfig
from repro.core.parallel import run_strategies
from repro.core.reporting import render_snapshot_summary
from repro.core.generation import prefix_sort_key, snapshot_descriptor
from repro.core.strategy import Strategy
from repro.netsim.chaos import ChaosConfig
from repro.netsim.simulator import Simulator
from repro.obs.config import ObsConfig, configure_observability
from repro.obs.metrics import METRICS
from repro.packets.dccp import DCCP_FORMAT, make_dccp_header
from repro.packets.tcp import TCP_FORMAT, make_tcp_header
from repro.snap import SnapshotConfig, execute_run, reset_engine
from repro.snap.compare import compare_journals
from repro.snap.engine import SnapshotEngine, comparable_result
from repro.snap.keys import prefix_fingerprint, run_key

#: short enough to keep the suite fast, long enough to cover the target
#: connection's full lifetime (teardown lands around t=3)
TCP_CONFIG = TestbedConfig(duration=3.5)
DCCP_CONFIG = TestbedConfig(protocol="dccp", variant="linux-3.13-dccp",
                            duration=3.0, dccp_client_stop_at=2.0)

#: forking is worth testing even on tiny prefixes
SNAP = SnapshotConfig(enabled=True, verify_fraction=0.0, min_events=0)


def _packet(sid=9001, action="drop", state="ESTABLISHED", ptype="ACK",
            protocol="tcp", **params):
    if action == "drop" and not params:
        params = {"percent": 100}
    return Strategy(sid, protocol, "packet", state=state, packet_type=ptype,
                    action=action, params=params)


def _inject(sid=9002, trigger=("state", "client", "FIN_WAIT_1"), count=3):
    return Strategy(sid, "tcp", "inject", params={
        "src": "server1", "dst": "client1", "sport": 80, "dport": 40000,
        "packet_type": "RST", "fields": {}, "count": count, "interval": 0.01,
        "payload_len": 0, "trigger": trigger,
    })


@pytest.fixture
def metrics():
    configure_observability(ObsConfig(metrics=True))
    METRICS.reset()
    yield METRICS
    configure_observability(None)
    METRICS.reset()


@pytest.fixture(scope="module")
def tcp_engine():
    # shared across equality tests so the scout runs once per module
    return SnapshotEngine(SNAP)


def _assert_fork_equals_full(engine, config, strategy, seed=None):
    forked = engine.execute(config, strategy, seed)
    assert forked is not None, "engine should have served this strategy"
    full = Executor(config).run(strategy, seed=seed)
    assert comparable_result(forked) == comparable_result(full)
    return forked


class TestSnapshotConfig:
    def test_defaults_disabled(self):
        assert SnapshotConfig().enabled is False

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_verify_fraction_bounds(self, fraction):
        with pytest.raises(ValueError, match="verify_fraction"):
            SnapshotConfig(verify_fraction=fraction)

    def test_max_cached_bounds(self):
        with pytest.raises(ValueError, match="max_cached"):
            SnapshotConfig(max_cached=0)

    def test_min_events_bounds(self):
        with pytest.raises(ValueError, match="min_events"):
            SnapshotConfig(min_events=-1)

    def test_no_field_names_a_store(self):
        # a snapshot never leaves the worker process that built it
        with pytest.raises(TypeError):
            SnapshotConfig(store="dir://snaps")


class TestDescriptors:
    def test_baseline_is_ineligible(self):
        assert snapshot_descriptor(None) is None

    def test_packet_strategy_keys_on_pair(self):
        assert snapshot_descriptor(_packet()) == ("pair", "ESTABLISHED", "ACK")

    def test_state_triggered_inject_keys_on_state(self):
        descriptor = snapshot_descriptor(_inject())
        assert descriptor == ("state", "client", "FIN_WAIT_1")

    def test_time_triggered_inject_is_ineligible(self):
        assert snapshot_descriptor(_inject(trigger=("time", 1.5))) is None

    def test_sort_key_clusters_shared_prefixes(self):
        a, b = _packet(1, action="drop"), _packet(2, action="duplicate")
        assert prefix_sort_key(a) == prefix_sort_key(b)

    def test_sort_key_puts_ineligible_last(self):
        eligible = prefix_sort_key(_packet())
        for ineligible in (None, _inject(trigger=("time", 1.5))):
            assert eligible < prefix_sort_key(ineligible)


class TestKeys:
    def test_fingerprint_is_stable(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        assert (prefix_fingerprint(TCP_CONFIG, None, descriptor)
                == prefix_fingerprint(TCP_CONFIG, None, descriptor))

    def test_fingerprint_covers_descriptor_seed_and_config(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        base = prefix_fingerprint(TCP_CONFIG, None, descriptor)
        assert base != prefix_fingerprint(TCP_CONFIG, None, ("state", "client", "FIN_WAIT_1"))
        assert base != prefix_fingerprint(TCP_CONFIG, 123, descriptor)
        assert base != prefix_fingerprint(TestbedConfig(duration=4.0), None, descriptor)

    def test_default_seed_comes_from_config(self):
        descriptor = ("pair", "ESTABLISHED", "ACK")
        assert (prefix_fingerprint(TCP_CONFIG, None, descriptor)
                == prefix_fingerprint(TCP_CONFIG, TCP_CONFIG.seed, descriptor))

    def test_keys_are_pinned(self):
        # the determinism guard samples the forks it verifies from a
        # digest of the prefix fingerprint, so the keys must not drift
        assert run_key(TestbedConfig(), None) == "955546472bd9524a19967e27cd103525"
        assert (prefix_fingerprint(TestbedConfig(), None, ("pair", "ESTABLISHED", "ACK"))
                == "064f09210f8e21a0a9ca8b581b033636")
        dccp = TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", seed=9)
        assert (prefix_fingerprint(dccp, None, ("state", "client", "OPEN"))
                == "89370921b76a9b07da558cbdfa45ca28")

    def test_run_key_ignores_descriptor_but_not_seed(self):
        assert run_key(TCP_CONFIG, None) == run_key(TCP_CONFIG, TCP_CONFIG.seed)
        assert run_key(TCP_CONFIG, None) != run_key(TCP_CONFIG, 123)


class TestExecuteRunGate:
    """The per-process entry point refuses before touching a simulator."""

    def setup_method(self):
        reset_engine()

    def teardown_method(self):
        reset_engine()

    def test_disabled_config_runs_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SnapshotConfig()) is None

    def test_missing_config_runs_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, None) is None

    def test_baseline_runs_in_full(self):
        assert execute_run(TCP_CONFIG, None, None, 0, SNAP) is None

    def test_retry_attempts_run_in_full(self):
        assert execute_run(TCP_CONFIG, _packet(), None, 1, SNAP) is None

    def test_first_eligible_request_runs_in_full(self, metrics):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SNAP) is None
        counters = metrics.snapshot()["counters"]
        assert counters.get("snap.scout_runs", 0) == 0
        assert counters["snap.scouts_deferred"] == 1

    def test_second_request_scouts_and_serves(self, metrics):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SNAP) is None
        forked = execute_run(TCP_CONFIG, _packet(9005, action="duplicate"), None, 0, SNAP)
        assert forked is not None
        full = Executor(TCP_CONFIG).run(_packet(9005, action="duplicate"))
        assert comparable_result(forked) == comparable_result(full)
        counters = metrics.snapshot()["counters"]
        assert counters["snap.scout_runs"] == 1
        assert counters["snap.scouts_deferred"] == 1

    def test_ineligible_requests_do_not_count(self, metrics):
        assert execute_run(TCP_CONFIG, None, None, 0, SNAP) is None
        assert execute_run(TCP_CONFIG, _packet(), None, 1, SNAP) is None
        assert execute_run(TCP_CONFIG, _inject(trigger=("time", 1.5)), None, 0, SNAP) is None
        assert "snap.scouts_deferred" not in metrics.snapshot()["counters"]
        # so the first eligible request is still the deferred one
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SNAP) is None
        assert metrics.snapshot()["counters"]["snap.scouts_deferred"] == 1

    def test_count_is_per_seed_and_per_engine(self, metrics):
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SNAP) is None
        assert execute_run(TCP_CONFIG, _packet(), 123, 0, SNAP) is None
        reset_engine()
        assert execute_run(TCP_CONFIG, _packet(), None, 0, SNAP) is None
        # a config change replaces the engine, and its count with it
        other = SnapshotConfig(enabled=True, verify_fraction=0.5, min_events=0)
        assert execute_run(TCP_CONFIG, _packet(), None, 0, other) is None
        counters = metrics.snapshot()["counters"]
        assert counters["snap.scouts_deferred"] == 4
        assert counters.get("snap.scout_runs", 0) == 0


class TestForkEquivalence:
    """A forked RunResult must be indistinguishable from a full run's."""

    def test_packet_strategy(self, tcp_engine):
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _packet())

    def test_state_triggered_inject(self, tcp_engine):
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _inject())

    def test_shared_prefix_is_reused(self, tcp_engine, metrics):
        # same (pair) descriptor as test_packet_strategy's strategy: the
        # second action forks from the snapshot the first one built
        _assert_fork_equals_full(tcp_engine, TCP_CONFIG, _packet(9005, action="duplicate"))
        counters = metrics.snapshot()["counters"]
        assert counters.get("snap.hits", 0) >= 1
        assert counters.get("snap.forks", 0) >= 1

    def test_dccp_packet_strategy(self):
        engine = SnapshotEngine(SNAP)
        strategy = _packet(9101, protocol="dccp", state="OPEN", ptype="DATAACK")
        _assert_fork_equals_full(engine, DCCP_CONFIG, strategy)

    def test_under_chaos_noise(self):
        # the snapshot captures the simulator RNG, so even probabilistic
        # chaos decisions replay identically on the forked tail
        config = TestbedConfig(duration=3.5, chaos=ChaosConfig(
            drop=0.05, delay=0.1, max_delay=0.02, reorder=0.05))
        _assert_fork_equals_full(SnapshotEngine(SNAP), config, _packet())

    def test_variant_and_seed(self):
        config = TestbedConfig(duration=3.5, variant="linux-3.0.0", seed=123)
        _assert_fork_equals_full(SnapshotEngine(SNAP), config, _inject(), seed=123)


class TestElisionAndEligibility:
    def test_unreachable_trigger_elides_to_scout_result(self, tcp_engine, metrics):
        # a simultaneous-close state the baseline never enters: an armed run
        # is provably the plain run, so no simulation happens at all
        strategy = _inject(9003, trigger=("state", "client", "CLOSING"))
        elided = tcp_engine.execute(TCP_CONFIG, strategy, None)
        assert elided is not None
        assert elided.strategy_id == strategy.strategy_id
        assert metrics.snapshot()["counters"].get("snap.elided", 0) == 1
        full = Executor(TCP_CONFIG).run(strategy)
        assert comparable_result(elided) == comparable_result(full)

    def test_elided_result_reports_its_own_wall_time(self, tcp_engine):
        strategy = _inject(9006, trigger=("state", "client", "CLOSING"))
        elided = tcp_engine.execute(TCP_CONFIG, strategy, None)
        scout = tcp_engine._scouts[run_key(TCP_CONFIG, None)]
        assert 0 < elided.wall_seconds < scout.result.wall_seconds

    def test_build_time_trigger_runs_in_full(self, tcp_engine):
        # the client sends its SYN synchronously during world construction,
        # so SYN_SENT predates event 0 — no snapshot boundary can front it
        strategy = _inject(9004, trigger=("state", "client", "SYN_SENT"))
        assert tcp_engine.execute(TCP_CONFIG, strategy, None) is None

    def test_short_prefixes_run_in_full(self, tcp_engine):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.0,
                                               min_events=10 ** 9))
        engine._scouts = tcp_engine._scouts  # reuse the module's scout
        assert engine.execute(TCP_CONFIG, _packet(), None) is None

    def test_prefix_below_default_min_events_runs_in_full(self, tcp_engine):
        # a fork this short costs more in the deep copy than it skips
        strategy = _packet(9007, ptype="PSH+ACK")
        assert tcp_engine.execute(TCP_CONFIG, strategy, None) is not None
        scout = tcp_engine._scouts[run_key(TCP_CONFIG, None)]
        assert 0 < scout.boundaries[snapshot_descriptor(strategy)] < SnapshotConfig().min_events
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.0))
        engine._scouts = tcp_engine._scouts
        assert engine.execute(TCP_CONFIG, strategy, None) is None


class TestEngineSpend:
    def test_phase_event_counts_are_exact(self, metrics):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=1.0,
                                               min_events=0))
        strategy = _packet()
        assert engine.execute(TCP_CONFIG, strategy, None) is not None
        boundary = engine._scouts[run_key(TCP_CONFIG, None)].boundaries[
            snapshot_descriptor(strategy)]
        counters = metrics.snapshot()["counters"]
        assert counters["snap.scout_events"] == Executor(TCP_CONFIG).run(None).events_processed
        assert counters["snap.build_events"] == boundary
        assert counters["snap.verify_events"] == Executor(TCP_CONFIG).run(strategy).events_processed
        assert counters["snap.events_saved"] == boundary

    def test_report_shows_spent_and_net(self):
        text = render_snapshot_summary({"counters": {
            "snap.events_saved": 1000, "snap.scout_events": 700,
            "snap.build_events": 200, "snap.verify_events": 300,
        }})
        assert "prefix events skipped by forking: 1,000" in text
        assert "events the engine spent: 1,200 (scouts 700, builds 200, verify runs 300)" in text
        assert "net events saved (skipped - spent): -200" in text


class TestSnapshotDispatch:
    def setup_method(self):
        reset_engine()  # forked workers inherit this process's engine

    def test_one_slot_per_batch_and_aligned(self, metrics):
        strategies = [_packet(1), _packet(2, action="duplicate"),
                      _inject(3), _inject(4, trigger=("state", "client", "CLOSING")),
                      _packet(5, ptype="PSH+ACK")]
        plain = run_strategies(TCP_CONFIG, strategies, workers=1)
        METRICS.reset()
        forked = run_strategies(TCP_CONFIG, strategies, workers=2, snapshots=SNAP,
                                obs=ObsConfig(metrics=True))
        recorded = metrics.snapshot()
        assert recorded["counters"]["dispatch.batches"] == len(strategies)
        assert [o.strategy_id for o in forked] == [s.strategy_id for s in strategies]
        assert ([comparable_result(o) for o in forked]
                == [comparable_result(o) for o in plain])


class TestSnapshotCampaign:
    def setup_method(self):
        reset_engine()  # forked workers inherit this process's engine

    def test_forked_campaign_journal_equals_full(self, tmp_path, metrics):
        def spec(enabled, journal):
            return CampaignSpec(
                testbed=TestbedConfig(protocol="tcp", duration=4.5), workers=2,
                sample_every=400, checkpoint=str(tmp_path / journal),
                snapshots=SnapshotConfig(enabled=enabled), obs=ObsConfig(metrics=True))

        run_campaign(spec(False, "full.jsonl"))
        METRICS.reset()
        result = run_campaign(spec(True, "snap.jsonl"))
        identical, report = compare_journals(str(tmp_path / "full.jsonl"),
                                             str(tmp_path / "snap.jsonl"))
        assert identical, report
        with open(tmp_path / "snap.jsonl") as journal:
            confirms = sum(json.loads(line).get("stage") == "confirm" for line in journal)
        assert confirms <= 2  # at most one candidate per worker
        assert result.snapshots["forks"] > 0
        # one scout per worker for the sweep; each worker's first eligible
        # slot and every lone confirm candidate ran in full
        assert result.snapshots["scout_runs"] == 2


class TestDeterminismGuard:
    def test_sampling_is_deterministic(self):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.5))
        verdicts = {engine._should_verify("fp", _packet()) for _ in range(5)}
        assert len(verdicts) == 1
        assert not SnapshotEngine(SNAP)._should_verify("fp", _packet())
        always = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=1.0))
        assert always._should_verify("fp", _packet())

    def test_divergence_poisons_prefix(self, metrics, monkeypatch):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=1.0,
                                               min_events=0))
        real_fork = SnapshotEngine._fork

        def corrupted_fork(self, config, strategy, snapshot, boundary):
            result = real_fork(self, config, strategy, snapshot, boundary)
            result.target_bytes += 1
            return result

        monkeypatch.setattr(SnapshotEngine, "_fork", corrupted_fork)
        strategy = _packet()
        guarded = engine.execute(TCP_CONFIG, strategy, None)
        # the guard catches the divergence and returns its own full run
        full = Executor(TCP_CONFIG).run(strategy)
        assert comparable_result(guarded) == comparable_result(full)
        assert metrics.snapshot()["counters"].get("snap.divergence", 0) == 1
        fingerprint = prefix_fingerprint(TCP_CONFIG, None, snapshot_descriptor(strategy))
        assert fingerprint in engine._poisoned
        # the poisoned prefix is permanently demoted to full execution
        assert engine.execute(TCP_CONFIG, strategy, None) is None


class TestSnapshotCache:
    def test_lru_eviction_respects_max_cached(self):
        engine = SnapshotEngine(SnapshotConfig(enabled=True, verify_fraction=0.0,
                                               min_events=0, max_cached=1))
        engine.execute(TCP_CONFIG, _packet(), None)
        engine.execute(TCP_CONFIG, _inject(), None)
        assert len(engine._lru) == 1
        survivor = next(iter(engine._lru))
        for entries in engine._by_run.values():
            assert all(fp == survivor for _boundary, fp in entries)


def _outcome(sid, **overrides):
    fields = dict(strategy_id=sid, protocol="tcp", variant="linux-3.13",
                  duration=3.5, target_bytes=1000, events_processed=500,
                  wall_seconds=1.0, run_id=f"sweep-{sid}-a0")
    fields.update(overrides)
    return RunResult(**fields)


def _write_journal(path, outcomes):
    journal = CheckpointJournal(str(path)).open()
    for outcome in outcomes:
        journal.record("sweep", outcome)
    journal.close()
    return str(path)


class TestCompareJournals:
    def test_identical_modulo_volatile_fields(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1), _outcome(2)])
        b = _write_journal(tmp_path / "b.jsonl", [
            _outcome(2, wall_seconds=9.9, run_id="sweep-2-a1"),  # reordered too
            _outcome(1, wall_seconds=0.1),
        ])
        identical, report = compare_journals(a, b)
        assert identical
        assert "2 outcome(s) identical" in report

    def test_field_divergence_is_reported(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1, target_bytes=999)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "diverged" in report and "target_bytes" in report

    def test_attempts_are_not_stripped(self, tmp_path):
        # snapshotting must not change retry behaviour, so attempt counts
        # participate in the contract
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1, attempts=2)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "attempts" in report

    def test_missing_outcomes_are_reported(self, tmp_path):
        a = _write_journal(tmp_path / "a.jsonl", [_outcome(1), _outcome(2)])
        b = _write_journal(tmp_path / "b.jsonl", [_outcome(1)])
        identical, report = compare_journals(a, b)
        assert not identical
        assert "only in" in report and "strategy=2" in report


class TestSimulatorPauseAndCompaction:
    """The scheduler features the snapshot engine is built on."""

    def test_stop_after_events_pauses_cleanly(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(0.1 * (index + 1), fired.append, index)
        sim.run(until=10.0, stop_after_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.truncated is None  # a pause is not a watchdog truncation
        sim.run(until=10.0)
        assert fired == list(range(10))

    def test_heap_compaction_drops_stale_handles(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0 + 0.001 * index, fired.append, index)
                   for index in range(300)]
        for handle in handles[:250]:
            handle.cancel()
        # mass cancellation triggered at least one compaction pass
        assert len(sim._heap) < 300
        assert sim._stale < 250
        sim.run(until=2.0)
        assert fired == list(range(250, 300))

    def test_cancel_is_idempotent_for_stale_accounting(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        stale = sim._stale
        handle.cancel()
        assert sim._stale == stale


class TestHeaderWirePlan:
    @pytest.mark.parametrize("fmt", [TCP_FORMAT, DCCP_FORMAT],
                             ids=lambda fmt: fmt.name)
    def test_plan_matches_field_specs(self, fmt):
        assert [name for name, _shift, _mask in fmt.wire_plan] == \
            [spec.name for spec in fmt.fields]
        shift = fmt.total_bits
        for (name, plan_shift, plan_mask), spec in zip(fmt.wire_plan, fmt.fields):
            shift -= spec.width
            assert plan_shift == shift
            assert plan_mask == spec.max_value

    def test_tcp_round_trip(self):
        header = make_tcp_header(sport=40000, dport=80, seq=0x12345678,
                                 ack=0x1ABCDEF0, window=65535).flags_set("syn", "ack")
        parsed = type(header).parse(header.pack())
        for name, _shift, _mask in TCP_FORMAT.wire_plan:
            assert getattr(parsed, name) == getattr(header, name)

    def test_dccp_round_trip(self):
        header = make_dccp_header("REQUEST", sport=40000, dport=80, seq=0xABCDEF)
        parsed = type(header).parse(header.pack())
        for name, _shift, _mask in DCCP_FORMAT.wire_plan:
            assert getattr(parsed, name) == getattr(header, name)

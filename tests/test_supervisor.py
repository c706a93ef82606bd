"""Supervised execution and noise-aware verdicts: parent-side deadlines,
kill + respawn + re-dispatch, poison-strategy quarantine, baseline noise
bands, and the confirmed/flaky verdict lifecycle."""

import json
import os

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core.controller import Controller
from repro.core.detector import (
    EFFECT_RESOURCE_EXHAUSTION,
    EFFECT_TARGET_DEGRADED,
    VERDICT_CONFIRMED,
    VERDICT_FLAKY,
    AttackDetector,
    BaselineMetrics,
    ConfirmationPolicy,
    Detection,
)
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.parallel import RetryPolicy, run_strategies
from repro.core.reporting import (
    render_campaign_health,
    render_flaky_detections,
    render_supervision_report,
    render_verdicts,
)
from repro.core.strategy import Strategy
from repro.core.supervisor import (
    FAULT_ENV,
    KIND_QUARANTINED,
    POLL_INTERVAL,
    WALL_GRACE,
    SupervisedWorkerPool,
    SupervisionConfig,
)


def _strategy(sid, percent=50):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


def _run(**overrides):
    defaults = dict(
        strategy_id=None, protocol="tcp", variant="linux-3.13", duration=10.0,
        target_bytes=100_000, competing_bytes=100_000,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


FAST = dict(duration=0.5, file_size=200_000)


class TestSupervisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(slot_budget=0)
        with pytest.raises(ValueError):
            SupervisionConfig(quarantine_after=0)
        # the parent's poll granularity is a constant, not a knob
        assert POLL_INTERVAL > 0

    def test_deadline_prefers_explicit_slot_budget(self):
        cfg = SupervisionConfig(slot_budget=12.0)
        assert cfg.deadline_for(TestbedConfig(run_budget=1.0), RetryPolicy()) == 12.0

    def test_deadline_derived_from_run_budget_covers_all_attempts(self):
        policy = RetryPolicy(retries=2)
        # 3 attempts x (2 + grace); retries start at once, so no pauses
        assert SupervisionConfig().deadline_for(TestbedConfig(run_budget=2.0), policy) == (
            3 * (2.0 + WALL_GRACE)
        )

    def test_no_budget_means_no_deadline(self):
        assert SupervisionConfig().deadline_for(TestbedConfig(), RetryPolicy()) is None


class TestSupervisedPool:
    def test_hanging_worker_killed_respawned_and_quarantined(self, monkeypatch):
        """The acceptance scenario: a strategy hangs its worker below the
        in-worker watchdog; the sweep still completes with aligned results,
        the worker is killed + respawned, innocent slots re-dispatch, and
        the offender is quarantined after ``quarantine_after`` strikes."""
        monkeypatch.setenv(FAULT_ENV, "hang:2")
        strategies = [_strategy(i) for i in range(5)]
        pool = SupervisedWorkerPool(
            workers=2,
            supervision=SupervisionConfig(slot_budget=3.0, quarantine_after=2),
        )
        journaled = []
        with pool:
            results = run_strategies(
                TestbedConfig(**FAST), strategies, pool=pool,
                on_result=lambda i, o: journaled.append(i),
            )
        # slot i describes strategy i
        assert [r.strategy_id for r in results] == [0, 1, 2, 3, 4]
        assert [type(r).__name__ for r in results] == [
            "RunResult", "RunResult", "RunError", "RunResult", "RunResult"
        ]
        offender = results[2]
        assert offender.kind == KIND_QUARANTINED
        assert "worker" in offender.message
        assert pool.kills >= 2          # one kill per strike
        assert pool.respawns >= 2
        assert pool.redispatched >= 1   # the first strike requeued the offender
        assert pool.quarantines == 1
        assert pool.strikes[2] == 2
        # the quarantined outcome reached the journal hook like any other
        assert sorted(journaled) == [0, 1, 2, 3, 4]

    def test_crashing_worker_detected_and_quarantined(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:1")
        strategies = [_strategy(i) for i in range(4)]
        pool = SupervisedWorkerPool(
            workers=2, supervision=SupervisionConfig(quarantine_after=1)
        )
        with pool:
            results = run_strategies(TestbedConfig(**FAST), strategies, pool=pool)
        assert [r.strategy_id for r in results] == [0, 1, 2, 3]
        assert isinstance(results[1], RunError)
        assert results[1].kind == KIND_QUARANTINED
        assert all(isinstance(r, RunResult) for i, r in enumerate(results) if i != 1)
        assert pool.worker_lost >= 1
        assert pool.quarantines == 1

    def test_quarantine_persists_across_dispatches(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "crash:1")
        pool = SupervisedWorkerPool(
            workers=2, supervision=SupervisionConfig(quarantine_after=1)
        )
        with pool:
            run_strategies(TestbedConfig(**FAST), [_strategy(1), _strategy(2)], pool=pool)
            monkeypatch.delenv(FAULT_ENV)  # the fault is gone, the verdict stays
            again = run_strategies(TestbedConfig(**FAST), [_strategy(1), _strategy(3)],
                                   pool=pool)
        assert isinstance(again[0], RunError)
        assert again[0].kind == KIND_QUARANTINED
        assert isinstance(again[1], RunResult)

    def test_results_match_serial_execution_without_faults(self):
        strategies = [_strategy(i, percent=30 + 10 * i) for i in range(1, 5)]
        serial = run_strategies(TestbedConfig(**FAST), strategies, workers=1)
        pool = SupervisedWorkerPool(workers=2, supervision=SupervisionConfig())
        with pool:
            supervised = run_strategies(TestbedConfig(**FAST), strategies, pool=pool)
        assert [r.target_bytes for r in supervised] == [r.target_bytes for r in serial]
        assert [r.strategy_id for r in supervised] == [r.strategy_id for r in serial]
        assert pool.kills == 0 and pool.quarantines == 0

    def test_worker_dead_while_idle_costs_no_strike(self):
        # a slot sent to a worker that died between dispatches never
        # started, so it is re-sent to the replacement without a strike
        strategies = [_strategy(i) for i in range(1, 5)]
        pool = SupervisedWorkerPool(workers=2, supervision=SupervisionConfig(quarantine_after=1))
        with pool:
            run_strategies(TestbedConfig(**FAST), strategies[:2], pool=pool)
            victim = pool._handles[0].process
            victim.kill()
            victim.join(timeout=10)
            results = run_strategies(TestbedConfig(**FAST), strategies, pool=pool)
        assert not victim.is_alive()
        assert [r.strategy_id for r in results] == [1, 2, 3, 4]
        assert all(isinstance(r, RunResult) for r in results)
        assert pool.worker_lost == 1 and pool.kills == 0
        assert pool.strikes == {} and pool.quarantines == 0

    @pytest.mark.parametrize("slots", [6, 12])
    def test_workers_are_never_recycled(self, slots):
        # the two workers forked for the first slot serve every slot:
        # without a kill or a death, nothing is replaced or re-sent
        strategies = [_strategy(i) for i in range(slots)]
        pool = SupervisedWorkerPool(workers=2, supervision=SupervisionConfig())
        with pool:
            results = run_strategies(TestbedConfig(**FAST), strategies[:1], pool=pool)
            pids = {handle.process.pid for handle in pool._handles}
            results += run_strategies(TestbedConfig(**FAST), strategies[1:], pool=pool)
            assert {handle.process.pid for handle in pool._handles} == pids
        assert [r.strategy_id for r in results] == list(range(slots))
        assert all(isinstance(r, RunResult) for r in results)
        assert len(pids) == 2 and pool.respawns == 0
        assert pool.worker_lost == 0 and pool.kills == 0
        assert pool.redispatched == 0
        assert pool.strikes == {}

    def test_fully_cached_dispatch_never_spawns_workers(self, tmp_path):
        """The PR 3 invariant holds under supervision: a warm cache means
        zero forks and zero simulator executions."""
        from repro.core.cache import RunCache

        cache = RunCache(str(tmp_path / "cache"))
        strategies = [_strategy(i) for i in range(1, 4)]
        run_strategies(TestbedConfig(**FAST), strategies, workers=1, cache=cache)
        pool = SupervisedWorkerPool(workers=2, supervision=SupervisionConfig())
        with pool:
            warm = run_strategies(
                TestbedConfig(**FAST), strategies, pool=pool, cache=cache
            )
            assert pool._handles == []  # no worker was ever spawned
        assert all(r.cached for r in warm)

    def test_one_worker_pool_runs_in_process(self, monkeypatch):
        def no_spawn(self):
            raise AssertionError("a one-worker pool must not spawn")

        monkeypatch.setattr(SupervisedWorkerPool, "_spawn", no_spawn)
        strategies = [_strategy(i, percent=30 + 10 * i) for i in range(3)]
        context = (TestbedConfig(**FAST), None, RetryPolicy(), None, "sweep", None)
        tasks = [(context, index, strategy) for index, strategy in enumerate(strategies)]
        with SupervisedWorkerPool(workers=1) as pool:
            replies = list(pool.dispatch(tasks))
        assert [index for index, _, _ in replies] == [0, 1, 2]
        for index, outcome, _delta in replies:
            assert isinstance(outcome, RunResult)
            assert outcome.strategy_id == strategies[index].strategy_id

    def test_transient_pool_is_supervised(self, monkeypatch):
        # no caller pool: run_strategies opens its own, and it must still
        # strike and quarantine a strategy that kills its worker
        monkeypatch.setenv(FAULT_ENV, "crash:2")
        strategies = [_strategy(i) for i in range(4)]
        results = run_strategies(TestbedConfig(**FAST), strategies, workers=2)
        assert [r.strategy_id for r in results] == [0, 1, 2, 3]
        assert isinstance(results[2], RunError)
        assert results[2].kind == KIND_QUARANTINED
        assert results[2].attempts == 3  # the default quarantine_after
        assert all(isinstance(r, RunResult) for i, r in enumerate(results) if i != 2)


class TestSupervisedCampaign:
    def test_campaign_quarantines_poison_strategy(self, monkeypatch, tmp_path):
        """End to end: a campaign whose strategy 1 hangs its worker finishes,
        parks the offender, and surfaces it in the health row and report."""
        monkeypatch.setenv(FAULT_ENV, "hang:1")
        spec = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=2,
            sample_every=500,
            supervision=SupervisionConfig(slot_budget=5.0, quarantine_after=1),
        )
        result = run_campaign(spec)
        assert result.quarantined_count == 1
        assert result.supervisor["kills"] >= 1
        assert result.supervisor["quarantines"] == 1
        quarantined = [e for e in result.errors if e.kind == KIND_QUARANTINED]
        assert [e.strategy_id for e in quarantined] == [1]
        health = result.health_row()
        assert health["quarantined"] == 1
        rendered = render_campaign_health(result)
        assert "Quarantined" in rendered and "supervisor:" in rendered

    def test_one_worker_campaign_has_zero_supervisor_counters(self):
        spec = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=1,
            sample_every=500,
        )
        result = run_campaign(spec)
        assert result.supervisor == dict.fromkeys(
            ("kills", "worker_lost", "respawns", "redispatched", "quarantines"), 0
        )
        assert result.quarantined_count == 0


class TestNoiseAwareBaseline:
    def test_from_runs_computes_population_stddev(self):
        baseline = BaselineMetrics.from_runs([
            _run(target_bytes=60_000, competing_bytes=90_000),
            _run(target_bytes=140_000, competing_bytes=110_000),
        ])
        assert baseline.target_bytes == 100_000
        assert baseline.target_bytes_std == 40_000
        assert baseline.competing_bytes_std == 10_000
        assert baseline.runs == 2

    def test_single_run_baseline_has_zero_noise(self):
        baseline = BaselineMetrics.from_runs([_run()])
        assert baseline.target_bytes_std == 0.0
        assert baseline.lingering_std == 0.0
        assert baseline.runs == 1

    def test_direct_construction_defaults_preserve_legacy_behaviour(self):
        baseline = BaselineMetrics(
            target_bytes=100.0, competing_bytes=100.0,
            server1_lingering=0.0, server2_lingering=0.0, observed_pairs=(),
        )
        detector = AttackDetector(baseline, noise_sigmas=3.0)
        # zero std: the band is zero-width, the paper thresholds rule alone
        detection = detector.evaluate(_run(target_bytes=40, competing_bytes=100))
        assert EFFECT_TARGET_DEGRADED in detection.effects


class TestNoiseAwareDetector:
    def _noisy_baseline(self):
        # replicas wobble +-40%: mean 100k, std 40k, 3-sigma band 120k
        return BaselineMetrics.from_runs([
            _run(target_bytes=60_000), _run(target_bytes=140_000)
        ])

    def test_sub_noise_band_throughput_delta_does_not_fire(self):
        detector = AttackDetector(self._noisy_baseline(), noise_sigmas=3.0)
        # 55% drop crosses the paper's 50% criterion but sits inside the band
        detection = detector.evaluate(_run(target_bytes=45_000))
        assert detection.effects == []

    def test_same_delta_fires_without_noise_band(self):
        detector = AttackDetector(self._noisy_baseline(), noise_sigmas=0.0)
        detection = detector.evaluate(_run(target_bytes=45_000))
        assert EFFECT_TARGET_DEGRADED in detection.effects

    def test_beyond_band_delta_still_fires(self):
        # mean 100k, std 40k -> band 120k; a 150k surge clears it
        detector = AttackDetector(self._noisy_baseline(), noise_sigmas=3.0)
        detection = detector.evaluate(_run(target_bytes=250_000))
        assert detection.is_attack

    def test_lingering_must_clear_noise_band(self):
        baseline = BaselineMetrics.from_runs([
            _run(server1_lingering=0), _run(server1_lingering=2)
        ])
        assert baseline.lingering_std == 1.0
        noisy = AttackDetector(baseline, noise_sigmas=3.0)
        strict = AttackDetector(baseline, noise_sigmas=0.0)
        run = _run(server1_lingering=3)
        assert EFFECT_RESOURCE_EXHAUSTION not in noisy.evaluate(run).effects
        assert EFFECT_RESOURCE_EXHAUSTION in strict.evaluate(run).effects

    def test_negative_noise_sigmas_rejected(self):
        with pytest.raises(ValueError):
            AttackDetector(self._noisy_baseline(), noise_sigmas=-1.0)


class TestConfirmationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConfirmationPolicy(baseline_runs=0)
        with pytest.raises(ValueError):
            ConfirmationPolicy(noise_sigmas=-0.1)

    def test_fingerprint_sensitive_to_policy(self):
        base = CampaignSpec(testbed=TestbedConfig())
        changed = base.with_overrides(
            confirmation=ConfirmationPolicy(baseline_runs=5)
        )
        assert base.fingerprint() != changed.fingerprint()

    def test_supervision_excluded_from_fingerprint(self):
        base = CampaignSpec(testbed=TestbedConfig())
        changed = base.with_overrides(
            supervision=SupervisionConfig(slot_budget=1.0, quarantine_after=1)
        )
        assert base.fingerprint() == changed.fingerprint()

    def test_spec_round_trips_new_policies(self):
        spec = CampaignSpec(
            testbed=TestbedConfig(),
            supervision=SupervisionConfig(slot_budget=7.5, quarantine_after=2),
            confirmation=ConfirmationPolicy(baseline_runs=3, noise_sigmas=2.0),
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_controller_extends_baseline_seeds_deterministically(self):
        controller = Controller(
            CampaignSpec(confirmation=ConfirmationPolicy(baseline_runs=4))
        )
        seeds = controller.baseline_seeds()
        assert len(seeds) == 4
        assert seeds[:2] == (101, 202)          # historical pair kept cacheable
        assert len(set(seeds)) == 4
        assert seeds == controller.baseline_seeds()  # deterministic

    def test_legacy_controller_keeps_two_seeds(self):
        # the default policy runs exactly the historical seed pair
        assert Controller(CampaignSpec()).baseline_seeds() == (101, 202)


class TestVerdicts:
    def test_reproduced_effects_are_confirmed(self):
        baseline = BaselineMetrics.from_runs([_run()])
        detector = AttackDetector(baseline)
        first = detector.evaluate(_run(target_bytes=10_000))
        second = detector.evaluate(_run(target_bytes=12_000))
        verdict = detector.confirm(first, second)
        assert verdict.verdict == VERDICT_CONFIRMED
        assert verdict.is_attack
        assert verdict.unconfirmed_effects == []

    def test_non_reproducing_detection_is_flaky_with_evidence(self):
        baseline = BaselineMetrics.from_runs([_run()])
        detector = AttackDetector(baseline)
        first = detector.evaluate(_run(target_bytes=10_000))   # 0.1 ratio
        second = detector.evaluate(_run(target_bytes=99_000))  # back to normal
        verdict = detector.confirm(first, second)
        assert verdict.verdict == VERDICT_FLAKY
        assert not verdict.is_attack
        assert verdict.unconfirmed_effects == first.effects
        assert verdict.sweep_target_ratio == pytest.approx(0.1)
        assert verdict.confirm_target_ratio == pytest.approx(0.99)


class TestRenderers:
    def test_render_flaky_detections(self):
        from repro.core.controller import CampaignResult

        detection = Detection(
            strategy_id=7, verdict=VERDICT_FLAKY,
            unconfirmed_effects=["target-throughput-degraded"],
            sweep_target_ratio=0.2, confirm_target_ratio=0.98,
        )
        result = CampaignResult(
            protocol="tcp", variant="x", strategies_generated=1,
            strategies_tried=1, flaky=[(_strategy(7), detection)],
        )
        rendered = render_flaky_detections(result)
        assert "target-throughput-degraded" in rendered
        assert "0.200" in rendered and "0.980" in rendered
        empty = CampaignResult(protocol="tcp", variant="x",
                               strategies_generated=0, strategies_tried=0)
        assert "no flaky" in render_flaky_detections(empty)

    def test_render_supervision_report(self):
        kills = [{"name": "supervisor.kill",
                  "fields": {"reason": "deadline", "strategy_id": 3, "killed": True}}]
        quarantines = [{"name": "supervisor.quarantine",
                        "fields": {"strategy_id": 3, "strikes": 2, "reason": "deadline"}}]
        rendered = render_supervision_report(kills, quarantines)
        assert "deadline=1" in rendered
        assert "Strikes" in rendered and "2" in rendered
        assert "no supervisor" in render_supervision_report([], [])

    def test_render_verdicts_shows_noise_band_and_deltas(self):
        verdicts = [{"name": "detector.confirm",
                     "fields": {"strategy_id": 4, "verdict": "flaky",
                                "effects": [], "unconfirmed": ["x-effect"],
                                "sweep_target_ratio": 0.3,
                                "confirm_target_ratio": 1.01}}]
        baseline = {"runs": 3, "noise_sigmas": 3.0,
                    "target_bytes": 100000.0, "target_bytes_std": 1234.5}
        rendered = render_verdicts(verdicts, baseline)
        assert "flaky" in rendered and "x-effect" in rendered
        assert "noise band" in rendered and "3" in rendered
        assert "no confirm verdicts" in render_verdicts([], {})


class TestFaultHook:
    def test_malformed_fault_spec_is_ignored(self, monkeypatch):
        from repro.core.supervisor import _maybe_inject_fault

        monkeypatch.setenv(FAULT_ENV, "hang:not-a-number")
        _maybe_inject_fault(3)  # must not raise (and must not hang)

    def test_fault_only_hits_the_target(self, monkeypatch):
        from repro.core.supervisor import _maybe_inject_fault

        monkeypatch.setenv(FAULT_ENV, "hang:5")
        _maybe_inject_fault(4)      # different strategy: no-op
        _maybe_inject_fault(None)   # baseline run: no-op


class TestTraceSections:
    def test_campaign_trace_records_quarantine_and_kills(self, monkeypatch, tmp_path):
        from repro.obs import ObsConfig
        from repro.obs.store import (
            baseline_stats, load_trace_dir, quarantine_events, supervisor_kills,
        )

        monkeypatch.setenv(FAULT_ENV, "crash:1")
        trace_dir = str(tmp_path / "trace")
        spec = CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=2,
            sample_every=500,
            supervision=SupervisionConfig(quarantine_after=1),
            obs=ObsConfig(trace_dir=trace_dir, metrics=True),
        )
        result = run_campaign(spec)
        assert result.quarantined_count == 1
        events = load_trace_dir(trace_dir)
        assert len(quarantine_events(events)) == 1
        assert len(supervisor_kills(events)) >= 1
        stats = baseline_stats(events)
        assert stats["runs"] == 2
        assert stats["noise_sigmas"] == 3.0
        assert result.metrics["counters"]["supervisor.quarantines"] == 1


class TestJournalAtomicity:
    def test_record_leaves_no_temp_files_and_always_parses(self, tmp_path):
        from repro.core.checkpoint import CheckpointJournal

        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})
        for sid in range(5):
            journal.record("sweep", _run(strategy_id=sid))
            # after every single record the on-disk file is fully parseable
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    json.loads(line)
        journal.close()
        assert [p for p in os.listdir(tmp_path) if p != "journal.jsonl"] == []

    def test_reopen_after_torn_append_preserves_outcomes(self, tmp_path):
        from repro.core.checkpoint import CheckpointJournal

        path = str(tmp_path / "journal.jsonl")
        with CheckpointJournal(path) as journal:
            journal.open({"protocol": "tcp"})
            journal.record("sweep", _run(strategy_id=1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"stage": "sweep", "kind": "result", "outc')  # torn tail
        with CheckpointJournal(path) as journal:
            journal.open({"protocol": "tcp"})
            journal.record("sweep", _run(strategy_id=2))
        completed = CheckpointJournal(path).load()
        assert {sid for _, sid in completed} == {1, 2}

    def test_record_requires_open(self, tmp_path):
        from repro.core.checkpoint import CheckpointJournal

        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(RuntimeError):
            journal.record("sweep", _run(strategy_id=1))

"""Fault-tolerant campaign runtime: crash isolation, watchdogs, retry,
checkpoint/resume, and the chaos executor hook."""

import json
import pickle

import pytest

from repro.core.checkpoint import (
    CheckpointJournal,
    JournalCorrupt,
    JournalMismatch,
    decode_outcome,
    encode_outcome,
)
from repro.core.controller import Controller
from repro.core.executor import Executor, RunError, RunResult, TestbedConfig
from repro.core.parallel import RetryPolicy, derive_seed, run_strategies
from repro.core.reporting import render_campaign_health
from repro.core.strategy import Strategy
from repro.netsim.chaos import ChaosConfig, ChaosTap
from repro.netsim.simulator import Simulator


def _strategy(sid, percent):
    return Strategy(sid, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                    action="drop", params={"percent": percent})


#: percent > 100 makes DropAction's constructor raise inside the run
BAD_PERCENT = 150


class TestCrashIsolation:
    def test_worker_exception_becomes_run_error_in_slot(self):
        outcomes = run_strategies(
            TestbedConfig(),
            [_strategy(1, 50), _strategy(2, BAD_PERCENT), _strategy(3, 60)],
            workers=1,
        )
        assert [type(o).__name__ for o in outcomes] == ["RunResult", "RunError", "RunResult"]
        assert [o.strategy_id for o in outcomes] == [1, 2, 3]  # alignment preserved
        error = outcomes[1]
        assert error.error_type == "ValueError"
        assert "percent" in error.message
        assert "ValueError" in error.traceback_summary
        assert error.run_id == "sweep-2-a0"  # names its --profile dump
        assert error.wall_seconds > 0

    def test_parallel_pool_survives_worker_exceptions(self):
        outcomes = run_strategies(
            TestbedConfig(),
            [_strategy(1, 50), _strategy(2, BAD_PERCENT), _strategy(3, 60)],
            workers=2,
            batch_size=1,
        )
        assert [o.strategy_id for o in outcomes] == [1, 2, 3]
        assert isinstance(outcomes[1], RunError)
        assert isinstance(outcomes[0], RunResult)
        assert isinstance(outcomes[2], RunResult)

    def test_run_error_picklable_and_roundtrips(self):
        error = RunError(strategy_id=4, error_type="ValueError", message="boom",
                         traceback_summary="tb", attempts=2, seeds=(7, 11))
        assert pickle.loads(pickle.dumps(error)) == error
        assert RunError.from_dict(error.to_dict()) == error

    def test_on_result_hook_sees_every_executed_slot(self):
        seen = []
        run_strategies(
            TestbedConfig(),
            [_strategy(1, 50), _strategy(2, BAD_PERCENT)],
            workers=1,
            on_result=lambda index, outcome: seen.append((index, type(outcome).__name__)),
        )
        assert sorted(seen) == [(0, "RunResult"), (1, "RunError")]

    def test_result_hook_failure_propagates_in_process(self):
        # one worker runs in this process, so no worker can be lost: a
        # failing journal/ledger hook must surface, not become placeholders
        def failing_hook(index, outcome):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_strategies(TestbedConfig(), [_strategy(1, 50)], workers=1,
                           on_result=failing_hook)


class TestWatchdogs:
    def test_event_budget_cuts_off_run(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13", max_events=500)
        result = Executor(config).run(None)
        assert result.timed_out
        assert result.truncated == "max-events"
        assert result.events_processed == 500

    def test_wall_clock_budget_cuts_off_run(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13", run_budget=0.0)
        result = Executor(config).run(None)
        assert result.timed_out
        assert result.truncated == "wall-budget"

    def test_unbudgeted_run_is_not_timed_out(self):
        result = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        assert not result.timed_out
        assert result.truncated is None

    def test_simulator_truncated_resets_between_runs(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.truncated == "max-events"
        sim.run()
        assert sim.truncated is None

    def test_exhausted_timeout_becomes_error(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13", max_events=500)
        outcomes = run_strategies(config, [_strategy(1, 50)], workers=1, retries=1)
        error = outcomes[0]
        assert isinstance(error, RunError)
        assert error.error_type == "Timeout"
        assert error.timed_out
        assert error.attempts == 2
        assert error.run_id == "sweep-1-a1"  # the final failed attempt
        assert error.wall_seconds > 0


class TestRetry:
    def test_attempt_zero_uses_base_seed(self):
        assert derive_seed(7, 42, 0) == 7

    def test_retry_seeds_are_deterministic(self):
        config = TestbedConfig()
        first = run_strategies(config, [_strategy(2, BAD_PERCENT)], workers=1, retries=2)[0]
        second = run_strategies(config, [_strategy(2, BAD_PERCENT)], workers=1, retries=2)[0]
        assert first.attempts == second.attempts == 3
        assert first.seeds == second.seeds
        assert len(set(first.seeds)) == 3  # every attempt got a distinct seed

    def test_successful_run_counts_one_attempt(self):
        result = run_strategies(TestbedConfig(), [_strategy(1, 50)], workers=1, retries=3)[0]
        assert isinstance(result, RunResult)
        assert result.attempts == 1

    def test_backoff_schedule_doubles(self):
        policy = RetryPolicy(retries=3, backoff=0.1)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)
        assert RetryPolicy().backoff_for(1) == 0.0

    def test_backoff_attempt_zero_never_sleeps(self):
        # the first attempt runs immediately regardless of the backoff base
        assert RetryPolicy(retries=3, backoff=5.0).backoff_for(0) == 0.0
        assert RetryPolicy(retries=0, backoff=0.0).backoff_for(0) == 0.0

    def test_retry_seeds_do_not_collide_across_strategies(self):
        # 1000 strategies x 10 retry attempts: every derived seed distinct
        seeds = {
            derive_seed(7, sid, attempt)
            for sid in range(1000)
            for attempt in range(1, 11)
        }
        assert len(seeds) == 10_000

    def test_retry_seeds_distinct_from_base_and_baseline(self):
        # a strategy's retries never replay the base seed or a baseline
        # (strategy_id=None) retry seed
        baseline = {derive_seed(7, None, attempt) for attempt in range(1, 4)}
        for sid in (1, 2, 3):
            for attempt in range(1, 4):
                seed = derive_seed(7, sid, attempt)
                assert seed != 7
                assert seed not in baseline


class _ScriptedRng:
    def __init__(self, rolls):
        self._rolls = list(rolls)

    def random(self):
        return self._rolls.pop(0)


class TestChaos:
    def test_reorder_swaps_wire_order(self):
        sim = Simulator()
        enqueued = []

        class FakePipe:
            def enqueue(self, packet):
                enqueued.append(packet)

        tap = ChaosTap(sim, _ScriptedRng([0.9, 0.1, 0.9]), drop=0.0,
                       duplicate=0.0, delay=0.0, reorder=0.5)
        pipe = FakePipe()
        tap("p1", pipe)
        tap("p2", pipe)
        tap("p3", pipe)
        assert enqueued == ["p1", "p3", "p2"]
        assert tap.reordered == 1
        assert tap.counters()["passed"] == 2

    def test_chaos_config_is_picklable(self):
        config = TestbedConfig(chaos=ChaosConfig(drop=0.01, reorder=0.01))
        assert pickle.loads(pickle.dumps(config)).chaos == config.chaos

    def test_executor_runs_under_injected_chaos(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                               chaos=ChaosConfig(drop=0.02, reorder=0.02))
        result = Executor(config).run(None)
        assert result.chaos_events["dropped"] > 0
        assert result.chaos_events["reordered"] > 0
        assert not result.timed_out
        # TCP rides out light chaos: the baseline stays usable for detection
        clean = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        assert result.target_bytes > 0.3 * clean.target_bytes

    def test_chaotic_runs_are_deterministic(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                               chaos=ChaosConfig(drop=0.05))
        a = Executor(config).run(None, seed=3)
        b = Executor(config).run(None, seed=3)
        assert a.target_bytes == b.target_bytes
        assert a.chaos_events == b.chaos_events


class TestCheckpointJournal:
    def test_outcome_roundtrip(self):
        result = Executor(TestbedConfig(max_events=2000)).run(_strategy(5, 50))
        for outcome in (result, RunError(5, "ValueError", "boom", seeds=(1, 2))):
            decoded = decode_outcome(json.loads(json.dumps(encode_outcome("sweep", outcome))))
            assert decoded == outcome

    def test_truncated_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})
        journal.record("sweep", RunError(1, "ValueError", "boom"))
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"stage": "sweep", "kind": "resu')  # SIGKILL mid-write
        completed = CheckpointJournal(path).load({"protocol": "tcp"})
        assert list(completed) == [("sweep", 1)]

    def _journal_with_outcomes(self, tmp_path, count=2):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})
        for sid in range(1, count + 1):
            journal.record("sweep", RunError(sid, "ValueError", "boom"))
        journal.close()
        return path

    def test_midfile_corruption_is_an_error_not_a_skip(self, tmp_path):
        # only the *final* line may be torn (a kill mid-append); garbage in
        # the middle means the file was damaged some other way and silently
        # skipping it would re-run and double-journal completed work
        path = self._journal_with_outcomes(tmp_path, count=2)
        lines = open(path).read().splitlines(True)
        with open(path, "w") as fh:
            fh.write(lines[0])
            fh.write('{"stage": "sweep", "kind": "resu\n')  # line 2: torn
            fh.writelines(lines[2:])  # ...but followed by intact lines
        with pytest.raises(JournalCorrupt, match="line 2"):
            CheckpointJournal(path).load({"protocol": "tcp"})
        with pytest.raises(JournalCorrupt, match="line 2"):
            CheckpointJournal(path).open({"protocol": "tcp"})

    def test_open_discards_torn_tail_instead_of_recommitting_it(self, tmp_path):
        path = self._journal_with_outcomes(tmp_path, count=1)
        with open(path, "a") as fh:
            fh.write('{"stage": "sweep", "kind": "resu')  # SIGKILL mid-write
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})  # must drop the torn tail here
        journal.record("sweep", RunError(2, "ValueError", "boom"))
        journal.close()
        # had open() kept the torn line, it would now sit mid-file and
        # poison every future load
        completed = CheckpointJournal(path).load({"protocol": "tcp"})
        assert sorted(completed) == [("sweep", 1), ("sweep", 2)]

    def test_record_appends_without_rewriting_the_journal(self, tmp_path, monkeypatch):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})
        header = open(path).read()

        def no_replace(*args, **kwargs):
            raise AssertionError("record() rewrote the journal")

        monkeypatch.setattr("repro.core.checkpoint.os.replace", no_replace)
        for sid in range(1, 4):
            journal.record("sweep", RunError(sid, "ValueError", "boom"))
        journal.close()
        content = open(path).read()
        assert content.startswith(header)
        assert content.count("\n") == 4
        completed = CheckpointJournal(path).load({"protocol": "tcp"})
        assert sorted(completed) == [("sweep", 1), ("sweep", 2), ("sweep", 3)]

    def test_open_terminates_an_unterminated_final_line(self, tmp_path):
        # a kill between a line's JSON and its newline leaves a parseable
        # tail; open() must end it so the next append starts a fresh line
        path = self._journal_with_outcomes(tmp_path, count=1)
        with open(path, "r+") as fh:
            content = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(content.rstrip("\n"))
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp"})
        journal.record("sweep", RunError(2, "ValueError", "boom"))
        journal.close()
        completed = CheckpointJournal(path).load({"protocol": "tcp"})
        assert sorted(completed) == [("sweep", 1), ("sweep", 2)]

    def test_meta_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        journal.open({"protocol": "tcp", "variant": "linux-3.13"})
        journal.close()
        with pytest.raises(JournalMismatch):
            CheckpointJournal(path).load({"protocol": "dccp"})

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError):
            Controller(TestbedConfig(), resume=True)


class TestCampaignResume:
    """The acceptance criterion: a campaign killed mid-sweep and resumed
    from its journal reproduces the uninterrupted campaign exactly."""

    SAMPLE_EVERY = 500

    def _controller(self, **kwargs):
        return Controller(TestbedConfig(protocol="tcp", variant="linux-3.13"),
                          workers=1, sample_every=self.SAMPLE_EVERY, **kwargs)

    def test_resume_from_truncated_journal_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        full = self._controller(checkpoint=path).run_campaign()
        assert full.strategies_tried > 5

        # simulate a SIGKILL mid-sweep: keep the header, the first half of
        # the journal, and a half-written tail line
        lines = open(path).read().splitlines(True)
        assert len(lines) > 4
        with open(path, "w") as fh:
            fh.writelines(lines[: 1 + (len(lines) - 1) // 2])
            fh.write('{"stage": "sweep", "kind": "resu')

        resumed = self._controller(checkpoint=path, resume=True).run_campaign()
        assert resumed.resumed_count > 0
        assert [s.strategy_id for s, _ in resumed.flagged] == [
            s.strategy_id for s, _ in full.flagged
        ]
        assert {
            name: [s.strategy_id for s, _ in members]
            for name, members in resumed.attack_clusters.items()
        } == {
            name: [s.strategy_id for s, _ in members]
            for name, members in full.attack_clusters.items()
        }
        assert resumed.table1_row() == full.table1_row()

    def test_campaign_partitions_errors_out_of_detection(self, monkeypatch):
        # poison one generated strategy so its run raises mid-sweep
        controller = self._controller(retries=1)
        generator = controller.make_generator()
        original_generate = generator.generate

        def poisoned(observed_pairs):
            strategies = original_generate(observed_pairs)
            strategies[0] = _strategy(strategies[0].strategy_id, BAD_PERCENT)
            return strategies

        monkeypatch.setattr(generator, "generate", poisoned)
        monkeypatch.setattr(controller, "make_generator", lambda: generator)
        result = controller.run_campaign()
        assert len(result.errors) == 1
        assert result.errors[0].error_type == "ValueError"
        assert result.retries_performed == 1
        assert result.health_row()["errors"] == 1
        # the rest of the sweep still completed and was classified
        assert result.strategies_tried > 5

    def test_health_report_renders(self):
        result = self._controller().run_campaign()
        result.errors.append(RunError(99, "ValueError", "boom", attempts=2))
        text = render_campaign_health(result)
        assert "Errors" in text and "Retries" in text
        assert "strategy 99" in text and "boom" in text


class TestCliFlags:
    def test_campaign_robustness_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "campaign", "--retries", "3", "--run-budget", "30",
            "--max-events", "100000", "--checkpoint", "j.jsonl",
        ])
        assert args.retries == 3
        assert args.run_budget == 30.0
        assert args.max_events == 100_000
        assert args.checkpoint == "j.jsonl"
        assert args.resume is None

    def test_campaign_default_retry(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign"])
        assert args.retries == 1
        assert args.checkpoint is None

    @pytest.mark.parametrize("argv", [
        ["campaign", "--retries", "-1"],
        ["campaign", "--batch-size", "0"],
        ["campaign", "--batch-size", "-2"],
        ["campaign", "--run-budget", "0"],
        ["campaign", "--run-budget", "-1.5"],
        ["campaign", "--workers", "0"],
        ["campaign", "--retry-backoff", "-0.1"],
        ["campaign", "--max-events", "0"],
        ["campaign", "--sample-every", "0"],
        ["campaign", "--slot-budget", "0"],
        ["campaign", "--quarantine-after", "0"],
        ["campaign", "--max-tasks-per-child", "0"],
        ["campaign", "--baseline-runs", "0"],
        ["campaign", "--noise-sigmas", "-1"],
        # store addresses must name their scheme
        ["campaign", "--store", "plain/dir"],
        ["worker", "--store", "x.db"],
        ["top", "--store", "sqlite:x"],
        ["campaign", "--snap-store", "plain/dir"],
    ])
    def test_nonsensical_values_rejected_at_parse_time(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        # argparse puts the offending flag and reason on stderr
        assert argv[1] in capsys.readouterr().err

    def test_supervision_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "campaign", "--slot-budget", "7.5",
            "--quarantine-after", "2", "--max-tasks-per-child", "50",
            "--baseline-runs", "3", "--noise-sigmas", "2.5",
        ])
        assert args.slot_budget == 7.5
        assert args.quarantine_after == 2
        assert args.max_tasks_per_child == 50
        assert args.baseline_runs == 3
        assert args.noise_sigmas == 2.5

    @pytest.mark.parametrize("argv", [
        # supervisor tuning flags are meaningless for in-process runs
        ["campaign", "--workers", "1", "--slot-budget", "5"],
        ["campaign", "--workers", "1", "--quarantine-after", "2"],
        ["campaign", "--workers", "1", "--max-tasks-per-child", "10"],
        # bare --resume names no journal to resume from
        ["campaign", "--resume"],
        ["campaign", "--resume", "a.jsonl", "--checkpoint", "b.jsonl"],
        # fabric flags travel together
        ["campaign", "--fabric"],
        ["campaign", "--store", "dir://s"],
        ["campaign", "--lease-ttl", "5"],
        ["campaign", "--lease-size", "2"],
    ])
    def test_contradictory_flag_combinations_rejected(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_consistent_flag_combinations_accepted(self):
        from repro.cli import _validate_campaign_flags, build_parser

        parser = build_parser()
        for argv in (
            ["campaign", "--resume", "--checkpoint", "j.jsonl"],
            ["campaign", "--resume", "j.jsonl"],
            ["campaign", "--slot-budget", "5"],
            ["campaign", "--fabric", "--store", "dir://s", "--lease-ttl", "5"],
        ):
            assert _validate_campaign_flags(parser.parse_args(argv)) is None, argv

"""Observability subsystem: event bus, metrics registry, profiling, report."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.controller import Controller
from repro.core.executor import RunError, RunResult, TestbedConfig
from repro.core.parallel import run_id_for, run_strategies
from repro.core.strategy import Strategy
from repro.obs import (
    BUS,
    METRICS,
    JsonlTraceSink,
    MemorySink,
    MetricsRegistry,
    ObsConfig,
    configure_observability,
    histogram_mean,
    histogram_percentile,
    merge_snapshots,
    profile_run,
    prune_profiles,
)
from repro.obs import config as obs_config
from repro.obs.metrics import Histogram
from repro.obs.store import (
    has_baseline,
    load_metrics_snapshot,
    load_trace_dir,
    run_spans,
    strategy_ids,
    strategy_timeline,
    transition_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test leaves the process-wide bus/registry as it found them: off."""
    yield
    BUS.configure(None)
    METRICS.enabled = False
    METRICS.reset()
    obs_config._APPLIED = None


class TestEventBus:
    def test_disabled_is_inert(self):
        assert not BUS.enabled
        BUS.emit("anything", x=1)  # no sink, no error
        assert BUS.span("a") is BUS.span("b")  # shared no-op span

    def test_emit_carries_scope_context(self):
        sink = MemorySink()
        BUS.configure(sink)
        with BUS.scope(stage="sweep", strategy_id=3):
            BUS.emit("thing.happened", value=42)
        BUS.emit("outside")
        inside, outside = sink.records
        assert inside["kind"] == "event"
        assert inside["name"] == "thing.happened"
        assert inside["stage"] == "sweep"
        assert inside["strategy_id"] == 3
        assert inside["fields"] == {"value": 42}
        assert "stage" not in outside

    def test_nested_scopes_override_and_restore(self):
        sink = MemorySink()
        BUS.configure(sink)
        with BUS.scope(stage="sweep", attempt=0):
            with BUS.scope(attempt=1):
                BUS.emit("inner")
            BUS.emit("outer")
        inner, outer = sink.records
        assert inner["attempt"] == 1 and inner["stage"] == "sweep"
        assert outer["attempt"] == 0

    def test_span_records_duration(self):
        sink = MemorySink()
        BUS.configure(sink)
        with BUS.span("run.setup", protocol="tcp"):
            pass
        (record,) = sink.records
        assert record["kind"] == "span"
        assert record["name"] == "run.setup"
        assert record["dur"] >= 0.0
        assert record["fields"] == {"protocol": "tcp"}


class TestJsonlSink:
    def test_roundtrip_through_trace_dir(self, tmp_path):
        BUS.configure(JsonlTraceSink(str(tmp_path)))
        with BUS.scope(stage="sweep", strategy_id=7, attempt=0):
            with BUS.span("run"):
                BUS.emit("tracker.transition", role="client",
                         src="CLOSED", event="snd SYN", dst="SYN_SENT")
        # trace files are hostname-qualified: pids recycle across hosts
        # sharing one store/NFS trace directory
        from repro.obs.bus import _host_token

        files = os.listdir(tmp_path)
        assert files == [f"events-{_host_token()}-{os.getpid()}.jsonl"]
        events = load_trace_dir(str(tmp_path))
        assert [e["name"] for e in events] == ["run", "tracker.transition"]
        assert run_spans(events)[0]["strategy_id"] == 7
        assert transition_events(events, strategy_id=7)
        assert transition_events(events, strategy_id=8) == []
        assert strategy_ids(events) == [7]
        assert strategy_timeline(events, 7) == events

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "events-1.jsonl"
        path.write_text(
            '{"ts": 1.0, "kind": "event", "name": "ok"}\n'
            "not json at all\n"
            '{"ts": 2.0, "kind": "ev'  # half-written tail after a kill
        )
        events = load_trace_dir(str(tmp_path))
        assert [e["name"] for e in events] == ["ok"]

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_dir(str(tmp_path / "nope"))


class TestTraceDirMerge:
    """Cross-host trace merging: many files, torn tails, shared timestamps."""

    @staticmethod
    def _write(path, events, torn_tail=None):
        lines = [json.dumps(e, sort_keys=True) for e in events]
        text = "\n".join(lines) + "\n" if lines else ""
        if torn_tail is not None:
            text += torn_tail  # no trailing newline: a write cut off mid-record
        path.write_text(text)

    def test_torn_final_lines_in_multiple_files(self, tmp_path):
        # two workers SIGKILLed mid-emit: each file ends in a torn record;
        # every complete record from both files must still be merged
        self._write(
            tmp_path / "events-hosta-100.jsonl",
            [{"ts": 1.0, "kind": "event", "name": "a1"},
             {"ts": 3.0, "kind": "event", "name": "a2"}],
            torn_tail='{"ts": 5.0, "kind": "ev',
        )
        self._write(
            tmp_path / "events-hostb-100.jsonl",
            [{"ts": 2.0, "kind": "event", "name": "b1"}],
            torn_tail='{"ts": 4.0, "kind": "event", "na',
        )
        events = load_trace_dir(str(tmp_path))
        assert [e["name"] for e in events] == ["a1", "b1", "a2"]

    def test_duplicate_timestamps_across_hosts_all_kept(self, tmp_path):
        # coarse clocks collide across hosts; merging must keep every
        # record, not dedupe on timestamp
        self._write(
            tmp_path / "events-hosta-7.jsonl",
            [{"ts": 1.5, "kind": "event", "name": "x", "host": "a"}],
        )
        self._write(
            tmp_path / "events-hostb-7.jsonl",
            [{"ts": 1.5, "kind": "event", "name": "x", "host": "b"},
             {"ts": 1.5, "kind": "event", "name": "y", "host": "b"}],
        )
        events = load_trace_dir(str(tmp_path))
        assert len(events) == 3
        assert all(e["ts"] == 1.5 for e in events)
        assert sorted((e["host"], e["name"]) for e in events) == [
            ("a", "x"), ("b", "x"), ("b", "y"),
        ]

    def test_old_and_new_filenames_both_read(self, tmp_path):
        # pre-PR traces used events-<pid>.jsonl; both generations merge
        self._write(
            tmp_path / "events-12345.jsonl",
            [{"ts": 1.0, "kind": "event", "name": "old-style"}],
        )
        self._write(
            tmp_path / "events-myhost-12345.jsonl",
            [{"ts": 2.0, "kind": "event", "name": "new-style"}],
        )
        events = load_trace_dir(str(tmp_path))
        assert [e["name"] for e in events] == ["old-style", "new-style"]

    def test_same_pid_different_hosts_never_collides(self, tmp_path):
        # the point of hostname-qualified names: identical pids on two
        # hosts sharing the directory produce two distinct files
        from repro.obs.bus import _host_token

        sink_a = JsonlTraceSink(str(tmp_path))
        BUS.configure(sink_a)
        BUS.emit("from.this.host")
        BUS.configure(None)
        # simulate the other host: same pid, different hostname token
        other = tmp_path / f"events-otherhost-{os.getpid()}.jsonl"
        self._write(other, [{"ts": 0.0, "kind": "event", "name": "from.other.host"}])
        names = sorted(os.listdir(tmp_path))
        assert f"events-{_host_token()}-{os.getpid()}.jsonl" in names
        assert other.name in names
        assert len(names) == 2
        events = load_trace_dir(str(tmp_path))
        assert sorted(e["name"] for e in events) == [
            "from.other.host", "from.this.host",
        ]


class TestMetrics:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("runs.completed")
        reg.inc("runs.completed", 2)
        reg.gauge("queue.peak").set_max(4)
        reg.gauge("queue.peak").set_max(2)  # lower: ignored
        snap = reg.snapshot()
        assert snap["counters"]["runs.completed"] == 3
        assert snap["gauges"]["queue.peak"] == 4

    def test_histogram_stats(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["counts"] == [1, 1, 1, 1]  # one per bucket + overflow
        assert histogram_mean(snap) == pytest.approx(3.75)
        assert snap["min"] == 0.5 and snap["max"] == 10.0
        assert histogram_percentile(snap, 1.0) == 10.0

    def test_percentile_clamped_to_observed_range(self):
        hist = Histogram(bounds=(1.0, 10.0))
        hist.observe(2.0)  # lands in the wide (1, 10] bucket
        snap = hist.snapshot()
        for p in (0.5, 0.9, 0.99):
            assert histogram_percentile(snap, p) == 2.0

    def test_empty_percentile_is_zero(self):
        assert histogram_percentile(Histogram().snapshot(), 0.9) == 0.0

    def test_merge_semantics(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.inc("x", 2)
        b.inc("x", 3)
        a.gauge("peak").set(5)
        b.gauge("peak").set(9)
        a.histogram("t", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("t", bounds=(1.0, 2.0)).observe(1.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["x"] == 5
        assert merged["gauges"]["peak"] == 9
        assert merged["histograms"]["t"]["count"] == 2
        assert merged["histograms"]["t"]["min"] == 0.5
        assert merged["histograms"]["t"]["max"] == 1.5

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("t", bounds=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry(enabled=True)
        b.histogram("t", bounds=(1.0, 8.0)).observe(0.5)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_snapshot_and_reset_clears(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("x")
        delta = reg.snapshot_and_reset()
        assert delta["counters"]["x"] == 1
        assert reg.snapshot()["counters"] == {}


class TestProfiling:
    def test_profile_and_prune(self, tmp_path):
        pdir = str(tmp_path)
        for run_id in ("sweep-1-a0", "sweep-2-a0", "sweep-3-a0"):
            with profile_run(pdir, run_id):
                sum(range(100))
        assert len(list(tmp_path.glob("*.pstats"))) == 3
        removed = prune_profiles(pdir, ["sweep-2-a0"])
        assert removed == 2
        assert [p.name for p in tmp_path.glob("*.pstats")] == ["sweep-2-a0.pstats"]

    def test_disabled_writes_nothing(self, tmp_path):
        with profile_run(None, "sweep-1-a0"):
            pass
        assert list(tmp_path.iterdir()) == []

    def test_prune_missing_dir_is_noop(self, tmp_path):
        assert prune_profiles(str(tmp_path / "nope"), []) == 0

    def test_finish_profiles_ranks_failed_runs_too(self, tmp_path):
        """A wedged (timed-out) attempt slower than every success keeps its
        profile — those are the runs profiling exists to diagnose."""
        pdir = str(tmp_path)
        for run_id in ("sweep-1-a0", "sweep-2-a0"):
            with profile_run(pdir, run_id):
                sum(range(100))
        controller = Controller(
            TestbedConfig(), obs=ObsConfig(profile_dir=pdir, profile_keep=1)
        )
        fast_ok = RunResult(strategy_id=1, protocol="tcp", variant="linux-3.13",
                            duration=1.0, run_id="sweep-1-a0", wall_seconds=0.1)
        wedged = RunError(strategy_id=2, error_type="Timeout", message="watchdog",
                          timed_out=True, run_id="sweep-2-a0", wall_seconds=9.0)
        controller._finish_profiles([fast_ok], [wedged])
        assert [p.name for p in tmp_path.glob("*.pstats")] == ["sweep-2-a0.pstats"]


class TestConfigure:
    def test_all_off_config_is_inactive(self):
        assert not ObsConfig().active
        assert ObsConfig(metrics=True).active

    def test_configure_and_disable(self, tmp_path):
        cfg = ObsConfig(trace_dir=str(tmp_path), metrics=True)
        configure_observability(cfg)
        assert BUS.enabled and METRICS.enabled
        configure_observability(cfg)  # idempotent: same applied config
        configure_observability(None)
        assert not BUS.enabled and not METRICS.enabled

    def test_run_id_convention(self):
        assert run_id_for("sweep", 1342, 0) == "sweep-1342-a0"
        assert run_id_for("confirm", None, 2) == "confirm-none-a2"


class TestWorkerMetricsMerge:
    """The acceptance path: a parallel sweep merges worker metrics + traces."""

    def _strategies(self, n=2):
        return [
            Strategy(i + 1, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                     action="drop", params={"percent": 10 * (i + 1)})
            for i in range(n)
        ]

    def test_parallel_sweep_merges_into_parent(self, tmp_path):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                               duration=1.0, client_stop_at=0.5)
        obs = ObsConfig(trace_dir=str(tmp_path), metrics=True)
        results = run_strategies(
            config, self._strategies(2), workers=2, batch_size=1, obs=obs, stage="sweep"
        )
        assert [r.strategy_id for r in results] == [1, 2]
        assert results[0].run_id == "sweep-1-a0"
        assert results[0].wall_seconds > 0
        snap = METRICS.snapshot()
        assert snap["counters"]["runs.completed"] == 2
        assert snap["counters"]["sim.events"] > 0
        assert snap["histograms"]["run.wall_seconds"]["count"] == 2
        events = load_trace_dir(str(tmp_path))
        spans = run_spans(events)
        assert {s["strategy_id"] for s in spans} == {1, 2}
        assert all(s["stage"] == "sweep" for s in spans)
        assert transition_events(events)  # trackers traced from the workers

    def test_fork_workers_do_not_reship_parent_counts(self):
        """Counts already in the parent registry at pool-creation time (the
        baseline's metrics before the sweep, sweep totals before confirm)
        must not ride along in forked workers' deltas and get re-merged."""
        config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                               duration=1.0, client_stop_at=0.5)
        obs = ObsConfig(metrics=True)
        configure_observability(obs)
        METRICS.inc("parent.marker", 7)
        results = run_strategies(
            config, self._strategies(2), workers=2, batch_size=1, obs=obs, stage="sweep"
        )
        assert all(isinstance(r, RunResult) for r in results)
        snap = METRICS.snapshot()
        assert snap["counters"]["parent.marker"] == 7  # not ×(workers+1)
        assert snap["counters"]["runs.completed"] == 2


class TestBaselineSelections:
    def _events(self):
        return [
            {"ts": 1.0, "kind": "span", "name": "run", "stage": "baseline",
             "attempt": 0, "seed": 101},
            {"ts": 1.1, "kind": "event", "name": "tracker.transition",
             "stage": "baseline", "attempt": 0,
             "fields": {"role": "client", "sim_time": 0.0,
                        "src": "CLOSED", "event": "snd SYN", "dst": "SYN_SENT"}},
            {"ts": 2.0, "kind": "span", "name": "run", "stage": "sweep",
             "strategy_id": 3, "attempt": 0, "seed": 7},
            {"ts": 2.1, "kind": "event", "name": "tracker.transition",
             "stage": "sweep", "strategy_id": 3, "attempt": 0,
             "fields": {"role": "client", "sim_time": 0.0,
                        "src": "CLOSED", "event": "snd SYN", "dst": "SYN_SENT"}},
        ]

    def test_timeline_none_selects_baseline_records(self):
        events = self._events()
        baseline = strategy_timeline(events, None)
        assert [e["stage"] for e in baseline] == ["baseline", "baseline"]
        assert strategy_timeline(events, 3) == events[2:]

    def test_transition_events_stage_filter(self):
        events = self._events()
        assert [e["stage"] for e in transition_events(events, stage="baseline")] == ["baseline"]
        assert len(transition_events(events)) == 2

    def test_has_baseline(self):
        assert has_baseline(self._events())
        assert not has_baseline(self._events()[2:])


class TestReportCli:
    def _write_trace(self, trace_dir, baseline=False):
        sink = JsonlTraceSink(str(trace_dir))
        BUS.configure(sink)
        if baseline:
            with BUS.scope(stage="baseline", attempt=0, seed=101):
                with BUS.span("run"):
                    BUS.emit("tracker.transition", role="client", sim_time=0.0,
                             src="CLOSED", event="snd SYN", dst="SYN_SENT")
        with BUS.scope(stage="sweep", strategy_id=3, attempt=0, seed=7):
            with BUS.span("run"):
                BUS.emit("tracker.transition", role="client", sim_time=0.0,
                         src="CLOSED", event="snd SYN", dst="SYN_SENT")
        BUS.configure(None)

    def _write_metrics(self, path):
        reg = MetricsRegistry(enabled=True)
        reg.inc("runs.completed", 1)
        reg.inc("sim.events", 1000)
        reg.histogram("run.wall_seconds").observe(0.2)
        path.write_text(json.dumps(reg.snapshot()))

    def test_report_renders_sections(self, tmp_path, capsys):
        trace_dir = tmp_path / "t"
        metrics = tmp_path / "m.json"
        self._write_trace(trace_dir)
        self._write_metrics(metrics)
        assert cli_main(["report", str(trace_dir), str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Campaign throughput" in out
        assert "Slowest runs" in out
        assert "strategy 3 timeline" in out
        assert "State-transition audit log" in out
        assert "tracker.transition" in out or "snd SYN" in out
        assert "runs.completed" in out  # metrics summary section

    def test_report_without_metrics(self, tmp_path, capsys):
        trace_dir = tmp_path / "t"
        self._write_trace(trace_dir)
        assert cli_main(["report", str(trace_dir), "--strategy", "3"]) == 0
        out = capsys.readouterr().out
        assert "strategy 3 timeline" in out
        assert "simulator events" not in out  # metrics sections absent

    def test_report_strategy_baseline_token(self, tmp_path, capsys):
        trace_dir = tmp_path / "t"
        self._write_trace(trace_dir, baseline=True)
        assert cli_main(["report", str(trace_dir), "--strategy", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline timeline" in out
        assert "strategy 3 timeline" not in out

    def test_report_default_includes_baseline_timeline(self, tmp_path, capsys):
        trace_dir = tmp_path / "t"
        self._write_trace(trace_dir, baseline=True)
        assert cli_main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "baseline timeline" in out
        assert "strategy 3 timeline" in out

    def test_report_missing_trace_dir(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_loader_rejects_non_dict(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_metrics_snapshot(str(path))

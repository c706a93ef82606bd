"""Tests of the campaign benchmark itself (the default pytest run collects
only ``tests/``, so these run on request):

    python3 -m pytest benchmarks/campaign -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import tracer
import workloads
from benchstats import percentile, quartiles, samples_beyond, spread, tail_percentile

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def _synthetic_tree(t: tracer.Tracer, clock: FakeClock):
    def leaf() -> None:
        clock.advance(3)

    leaf_w = tracer.wrap(t, leaf, "netsim.link.enqueue")

    def mid() -> None:
        clock.advance(2)
        leaf_w()
        clock.advance(1)
        leaf_w()

    mid_w = tracer.wrap(t, mid, "netsim.node.receive")

    def root() -> int:
        clock.advance(5)
        mid_w()
        clock.advance(4)
        return 7

    return tracer.wrap(t, root, "netsim.run", sampled=True)


def test_self_times_sum_to_inclusive_total():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    t.enabled = True
    assert _synthetic_tree(t, clock)() == 7
    assert t.stack == []
    assert t.spans["netsim.run"] == [1, 18, 9]
    assert t.spans["netsim.node.receive"] == [1, 9, 3]
    assert t.spans["netsim.link.enqueue"] == [2, 6, 6]
    assert sum(own for _, _, own in t.spans.values()) == t.spans["netsim.run"][1]
    assert t.edges[("netsim.link.enqueue", "netsim.node.receive")] == [2, 6]
    assert t.edges[("netsim.run", "")] == [1, 18]
    assert t.samples == {"netsim.run": [18]}


def test_disabled_tracer_records_nothing():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    _synthetic_tree(t, clock)()
    assert t.spans == {} and t.edges == {}


def test_flush_merge_round_trip_and_share_sum(tmp_path):
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    t.enabled = True
    t.trace_dir = str(tmp_path)
    traced = _synthetic_tree(t, clock)
    traced()
    t.count("netsim.events", 5)
    t.flush("sweep-1-a0")
    traced()
    t.flush("parent")
    assert t.spans == {}
    totals = tracer.merge(str(tmp_path), parent_pid=os.getpid())
    assert totals.records == 2
    assert totals.spans["netsim.run"] == [2, 36, 18]
    assert totals.counters == {"netsim.events": 5}
    metrics = tracer.layer_metrics(totals, wall_s=1.0, workers=2)
    assert metrics["layers.share_sum"] == pytest.approx(1.0)
    assert metrics["netsim.self_share"] == pytest.approx(0.5)
    assert metrics["netsim.link.enqueue.calls"] == 4


def test_after_fork_starts_clean():
    t = tracer.Tracer()
    t.enter("netsim.run")
    t.count("netsim.events")
    t.after_fork()
    assert t.stack == [] and t.counters == {}


def test_wrapped_classmethod_and_dynamic_name():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    t.enabled = True

    class Stage:
        def run(self, stage):
            clock.advance(1)
            return stage

    Stage.run = tracer.wrap(t, Stage.run, lambda args: f"core.parallel.stage.{args[1]}")
    assert Stage().run("sweep") == "sweep"
    assert t.spans["core.parallel.stage.sweep"] == [1, 1, 1]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 90) == 4.0
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(list(range(101)), 90) == 90


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(99) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(800) == 90
    assert tail_percentile(1000) == 99


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = quartiles(values)
    assert median == pytest.approx(3.75)
    assert spread(values) == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lint():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/campaign"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert metric["better"] in ("higher", "lower")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_every_layer_metric_names_what_it_moves():
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == set(tracer.LAYER_MOVES)
    for name, (moves, on) in tracer.LAYER_MOVES.items():
        if moves == "bench":
            assert on == (), name
            continue
        assert moves in end_to_end, name
        assert on and set(on) <= workload_names, name


def test_time_metrics_are_never_idle():
    """A layer idle on some workload reports a count, rate or share, never a
    time that would read 0 on every run of that workload."""
    times = {"s", "ms", "us"}
    idle_free = {"core.controller.baseline_s", "core.generation.generate_ms",
                 "core.generation.dedupe_ms", "core.cache.fingerprint_us.p50",
                 "core.cache.get_us.p50", "core.detector.evaluate_us.p50",
                 "fabric.store.get_us.p50"}
    assert {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in times} == idle_free


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_compare_improved_needs_ten_pairs():
    faster = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(PARENT[:5], faster[:5], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(PARENT, [v * 1.25 for v in PARENT], "higher", 0.1)[0] == "improved"


def test_compare_unchanged_regressed_unresolved():
    assert compare.verdict(PARENT, list(reversed(PARENT)), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(PARENT, [v * 1.3 for v in PARENT], "lower", 0.1)[0] == "regressed"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(PARENT, noisy, "lower", 0.1)[0] == "unresolved"
    # every change run better than every parent run is not "unresolved"
    wide_but_better = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 1.8, 2.2, 1.1]
    assert compare.verdict(PARENT, wide_but_better, "lower", 0.1)[0] == "improved"


def _write_results(directory: Path, values):
    directory.mkdir()
    for repeat, value in enumerate(values):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        record = {"workload": "tcp-sweep", "repeat": repeat, "trace": False,
                  "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}
        (directory / f"tcp-sweep-r{repeat}.json").write_text(json.dumps(record))


def test_compare_reads_result_directories(tmp_path, capsys):
    _write_results(tmp_path / "parent", PARENT)
    _write_results(tmp_path / "change", [v * 1.5 for v in PARENT])
    rows = compare.compare(tmp_path / "parent", tmp_path / "change")
    assert {row["workload"] for row in rows} == {"tcp-sweep"}
    assert len(rows) == len(BENCHMARK["end_to_end"])
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    lower = [m["name"] for m in BENCHMARK["end_to_end"] if m["better"] == "lower"]
    assert all(verdicts[name] == "regressed" for name in lower)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert "regressed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# golden digests and the end-to-end paths
# ----------------------------------------------------------------------
def test_golden_digests_cover_both_seeds_and_contracts():
    for seed in run.GOLDEN_SEEDS:
        digests = {name: run.golden_digest(name, seed) for name in workloads.WORKLOADS}
        assert all(digests.values()), seed
        assert workloads.mismatches(digests["tcp-sweep"], digests["tcp-snap"]) == 0


def test_mismatch_counting():
    base = {"table1_row": {"a": 1, "b": 2}, "attacks": ["x"], "flagged": ["f1"],
            "flaky": [], "runs_executed": 9}
    other = {"table1_row": {"a": 1, "b": 3}, "attacks": ["x"], "flagged": ["f2"],
             "flaky": [], "runs_executed": 0}
    assert workloads.mismatches(base, base) == 0
    assert workloads.mismatches(base, other) == 4
    assert workloads.mismatches(base, other, runs=False) == 3


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "campaign",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/campaign/run.py", "--workload", "tcp-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_smoke_all_workloads_under_90s():
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 90, elapsed
    for name in workloads.WORKLOADS:
        assert f"# {name} seed 7: 1 sample(s)" in proc.stdout

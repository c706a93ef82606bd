"""Snapshot/fork engine benchmark — merges a ``snapshot`` section into
``BENCH_sweep.json``.

Measures three regimes over the same strategy workload:

* ``full``  — every strategy executed in full, the yardstick.
* ``sweep`` — everything the engine does from cold (scout run, snapshot
  builds, forks, elisions, and full-run fallbacks for ineligible
  strategies and for the first eligible one, which the scout gate runs in
  full) against executing every strategy in full.  This is what a single
  ``--snapshots`` campaign sees end to end.
* ``warm``  — the engine pre-warmed (scout cached, snapshots built),
  restricted to the strategies it actually serves.  This is the
  steady-state fork throughput a long sweep amortizes toward, and the
  number the ``--min-speedup`` regression guard applies to.

One sample swings too much on a shared machine, so after a warmup round
the script runs ``ROUNDS`` rounds of all three regimes, alternating
whether ``full`` runs before or after the engine's two.  It records the
median and quartiles of each regime's wall time and of both speedups
(each round's speedup compares that round's own regimes), and guards the
median warm speedup.

The benchmark asserts the determinism contract in every round: every
engine-served result must equal its full-run twin field for field (minus
wall clock and run naming), so a speedup obtained by cutting corners
fails the run rather than flattering it.  The engine's ``snap.*``
counters must also repeat exactly from round to round.

The testbed uses ``duration=4.5`` so the run length tracks the target
connection's lifetime (teardown lands around t=3).  The default 10 s
duration pads every run with ~7 s of competing-flow-only traffic that no
snapshot can skip and every mode pays identically; it dilutes the
measurement without changing the contract being measured.

Usage::

    PYTHONPATH=src python benchmarks/bench_snapshot.py [--strategies N]
        [--out FILE] [--min-speedup X]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from pathlib import Path

from repro.core.executor import Executor, TestbedConfig
from repro.core.generation import StrategyGenerator, snapshot_descriptor
from repro.obs.metrics import METRICS
from repro.packets.tcp import TCP_FORMAT
from repro.snap import SnapshotConfig, execute_run, reset_engine
from repro.snap.engine import comparable_result
from repro.statemachine.specs import tcp_state_machine

from _harness import spread

REPO_ROOT = Path(__file__).resolve().parent.parent

#: timed rounds after the warmup round; each runs every regime once
ROUNDS = 5


def _full(config: TestbedConfig, workload: list) -> dict:
    started = time.perf_counter()
    results = [Executor(config).run(strategy) for strategy in workload]
    return {"wall": time.perf_counter() - started, "results": results}


def _engine(config: TestbedConfig, workload: list, snap: SnapshotConfig) -> dict:
    """The sweep regime from a cold engine, then the warm one on its served
    strategies."""
    reset_engine()
    METRICS.enabled = True
    METRICS.reset()
    served = []
    results = []
    started = time.perf_counter()
    for strategy in workload:
        result = execute_run(config, strategy, None, 0, snap)
        if result is not None:
            served.append(strategy)
        else:
            # same fallback the dispatch layer uses for ineligible runs
            result = Executor(config).run(strategy)
        results.append(result)
    sweep_wall = time.perf_counter() - started
    counters = {
        key: value
        for key, value in METRICS.snapshot()["counters"].items()
        if key.startswith("snap.")
    }
    METRICS.enabled = False
    METRICS.reset()

    started = time.perf_counter()
    warm = [execute_run(config, strategy, None, 0, snap) for strategy in served]
    warm_wall = time.perf_counter() - started
    return {"sweep_wall": sweep_wall, "results": results, "counters": counters,
            "served": served, "warm_wall": warm_wall, "warm": warm}


def _mismatches(workload: list, full: list, engine: dict) -> list:
    """Strategy ids whose engine result differs from the full run's."""
    by_id = {s.strategy_id: r for s, r in zip(workload, full)}
    pairs = list(zip(workload, engine["results"]))
    pairs += [(s, r) for s, r in zip(engine["served"], engine["warm"])]
    return sorted({
        strategy.strategy_id
        for strategy, result in pairs
        if result is None
        or comparable_result(result) != comparable_result(by_id[strategy.strategy_id])
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategies", type=int, default=30,
                        help="workload size, sampled evenly across the "
                             "snapshot-eligible search space (default 30)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="regression guard: fail below this median warm fork speedup")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args()

    config = TestbedConfig(duration=4.5)
    generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
    baseline = Executor(config).run(None)
    eligible = [
        strategy
        for strategy in generator.generate(baseline.observed_pairs)
        if snapshot_descriptor(strategy) is not None
    ]
    stride = max(1, len(eligible) // args.strategies)
    workload = eligible[::stride][: args.strategies]
    # enough room for every distinct prefix in the workload, so the warm
    # phase measures forking rather than LRU eviction churn
    snap = SnapshotConfig(enabled=True, verify_fraction=0.0, max_cached=64)

    _engine(config, workload, snap)  # warmup: imports and first-run setup
    rounds = []
    for index in range(ROUNDS):
        if index % 2:
            engine = _engine(config, workload, snap)
            full = _full(config, workload)
        else:
            full = _full(config, workload)
            engine = _engine(config, workload, snap)
        served_ids = {s.strategy_id for s in engine["served"]}
        warm_full_wall = sum(
            result.wall_seconds
            for strategy, result in zip(workload, full["results"])
            if strategy.strategy_id in served_ids
        )
        rounds.append({
            "full": full, "engine": engine, "warm_full_wall": warm_full_wall,
            "mismatched": _mismatches(workload, full["results"], engine),
        })

    first = rounds[0]
    logical_events = sum(r.events_processed for r in first["full"]["results"])
    served = first["engine"]["served"]
    served_ids = {s.strategy_id for s in served}
    warm_events = sum(
        result.events_processed
        for strategy, result in zip(workload, first["full"]["results"])
        if strategy.strategy_id in served_ids
    )
    full_walls = [r["full"]["wall"] for r in rounds]
    sweep_walls = [r["engine"]["sweep_wall"] for r in rounds]
    warm_full_walls = [r["warm_full_wall"] for r in rounds]
    warm_walls = [r["engine"]["warm_wall"] for r in rounds]
    sweep_speedup = spread([f / s for f, s in zip(full_walls, sweep_walls)])
    warm_speedup = spread([f / w for f, w in zip(warm_full_walls, warm_walls)])
    section = {
        "benchmark": "snapshot/fork engine (full re-execution vs prefix forking)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"protocol": "tcp", "duration": 4.5,
                   "strategies": len(workload)},
        "statistic": (f"median and quartiles over {ROUNDS} rounds after a warmup round, "
                      "alternating whether the full regime runs first; each speedup "
                      "compares one round's own regimes"),
        "rounds": ROUNDS,
        "sweep": {
            "full_wall_seconds": spread(full_walls),
            "forked_wall_seconds": spread(sweep_walls),
            "logical_events": logical_events,
            "events_per_second_full": round(logical_events / statistics.median(full_walls)),
            "events_per_second_forked": round(logical_events / statistics.median(sweep_walls)),
            "speedup": sweep_speedup,
            "engine_served": len(served),
        },
        "warm": {
            "full_wall_seconds": spread(warm_full_walls),
            "forked_wall_seconds": spread(warm_walls),
            "logical_events": warm_events,
            "events_per_second_full": round(warm_events / statistics.median(warm_full_walls)),
            "events_per_second_forked": round(warm_events / statistics.median(warm_walls)),
            "speedup": warm_speedup,
            "strategies": len(served),
        },
        "counters": first["engine"]["counters"],
    }

    out_path = Path(args.out)
    payload = {}
    if out_path.exists():
        try:
            payload = json.loads(out_path.read_text())
        except ValueError:
            payload = {}
    payload.setdefault("python", platform.python_version())
    payload.setdefault("machine", platform.machine())
    payload["snapshot"] = section
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(section, indent=2))

    failed = False
    for index, row in enumerate(rounds):
        if row["mismatched"]:
            print(f"FAIL: round {index + 1}: forked results diverged from full runs "
                  f"for strategies {row['mismatched']}")
            failed = True
        if row["engine"]["counters"] != first["engine"]["counters"]:
            print(f"FAIL: round {index + 1}: snap.* counters differ from round 1's")
            failed = True
    if warm_speedup["median"] < args.min_speedup:
        print(f"FAIL: median warm fork speedup {warm_speedup['median']}x "
              f"below {args.min_speedup}x")
        failed = True
    if failed:
        return 1
    print(f"ok: sweep {sweep_speedup['median']}x ({len(served)}/{len(workload)} "
          f"engine-served), warm {warm_speedup['median']}x (medians of {ROUNDS} "
          f"rounds), results identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

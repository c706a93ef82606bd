"""Observability overhead benchmark — writes ``BENCH_obs.json``.

Runs the same small strategy sweep three ways and compares wall time and
simulator throughput:

* ``off``     — observability disabled (the default campaign mode)
* ``metrics`` — metrics registry on, no tracing
* ``full``    — metrics + JSONL tracing to a temp directory

The off-mode numbers are the regression baseline: instrumentation sites
must stay a single attribute check when disabled, so ``off`` should match
pre-instrumentation throughput and ``metrics``/``full`` should stay within
a few percent (instrumentation records once per run, never per packet).

One sample of a mode swings by about 25% on a shared machine, so after a
warmup round the script runs ``ROUNDS`` rounds of all three modes in one
process, rotating which mode goes first.  It records each mode's median
and quartiles of events/sec and wall time, and takes the overheads from
the medians.  Metrics and tracing must not change the simulation: the
script exits non-zero when any sample's simulated events differ.  It never
gates on throughput.

The ``fleet`` section that ``bench_fleet.py`` merges into the same file is
preserved: this script only replaces its own keys.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py [--runs N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

from repro.core.executor import TestbedConfig
from repro.core.parallel import run_strategies
from repro.core.strategy import Strategy
from repro.obs import ObsConfig

from _harness import reset_obs, spread

REPO_ROOT = Path(__file__).resolve().parent.parent

MODES = ("off", "metrics", "full")
#: timed rounds after the warmup round; each runs every mode once
ROUNDS = 5


def _strategies(n: int):
    return [
        Strategy(i + 1, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                 action="drop", params={"percent": 5 * (i % 10)})
        for i in range(n)
    ]


def bench_mode(mode: str, runs: int, trace_dir: str) -> dict:
    reset_obs()
    obs = None
    if mode == "metrics":
        obs = ObsConfig(metrics=True)
    elif mode == "full":
        obs = ObsConfig(trace_dir=trace_dir, metrics=True)
    config = TestbedConfig(protocol="tcp", variant="linux-3.13",
                           duration=2.0, client_stop_at=1.0)
    strategies = _strategies(runs)
    started = time.perf_counter()
    results = run_strategies(config, strategies, workers=1, obs=obs, stage="sweep")
    wall = time.perf_counter() - started
    events = sum(r.events_processed for r in results)
    reset_obs()
    return {
        "mode": mode,
        "runs": runs,
        "wall_seconds": round(wall, 4),
        "sim_events": events,
        "events_per_second": round(events / wall) if wall > 0 else 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="strategy runs per mode (default 10)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_obs.json"))
    args = parser.parse_args()

    samples = {mode: [] for mode in MODES}
    with tempfile.TemporaryDirectory() as trace_dir:
        for mode in MODES:  # warmup: imports and first-simulation setup
            bench_mode(mode, args.runs, trace_dir)
        for index in range(ROUNDS):
            first = index % len(MODES)
            for mode in MODES[first:] + MODES[:first]:
                samples[mode].append(bench_mode(mode, args.runs, trace_dir))

    events = {sample["sim_events"] for rows in samples.values() for sample in rows}
    modes = [
        {
            "mode": mode,
            "runs": args.runs,
            "sim_events": rows[0]["sim_events"],
            "events_per_second": spread([row["events_per_second"] for row in rows]),
            "wall_seconds": spread([row["wall_seconds"] for row in rows]),
        }
        for mode, rows in samples.items()
    ]
    off = modes[0]["wall_seconds"]["median"]
    for row in modes[1:]:
        row["overhead_vs_off_pct"] = round(
            100.0 * (row["wall_seconds"]["median"] - off) / off, 2)

    section = {
        "benchmark": "observability overhead (sinks off vs on)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"protocol": "tcp", "duration": 2.0, "workers": 1},
        "statistic": (f"median and quartiles over {ROUNDS} rounds after a warmup round, "
                      "rotating which mode goes first; overheads compare medians"),
        "rounds": ROUNDS,
        "modes": modes,
    }
    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload.update(section)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(section, indent=2))
    if len(events) != 1:
        print(f"FAIL: modes simulated different events: {sorted(events)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

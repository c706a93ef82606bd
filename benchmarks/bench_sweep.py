"""Cache-aware sweep benchmark — writes ``BENCH_sweep.json``.

Runs one campaign twice against one cache directory:

* ``cold`` — empty cache: the executions/sec the pull-dispatch engine
  sustains when every run is a miss.
* ``warm`` — identical repeat: every run is a cache hit, zero simulations
  execute.  ``speedup_vs_cold`` is the headline number and its median
  must clear 1.5x (in practice it is orders of magnitude).

One sample swings too much on a shared machine, so after a warmup round
the script runs ``ROUNDS`` rounds, each a cold phase on a fresh cache
followed by a warm phase on the same cache.  It records the median and
quartiles of both phases' wall time, of the cold executions/sec, and of
the warm speedup (each round's speedup compares that round's own
phases), plus every round's raw wall times.

The ``snapshot`` section that ``bench_snapshot.py`` merges into the same
file is preserved: this script replaces every other top-level key.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py [--sample-every N]
        [--workers N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
from pathlib import Path

from repro.api import CampaignSpec, run_campaign
from repro.core.executor import TestbedConfig
from repro.obs import ObsConfig

from _harness import reset_obs, spread

REPO_ROOT = Path(__file__).resolve().parent.parent

#: timed rounds after the warmup round; each runs a cold and a warm phase
ROUNDS = 5

#: the ``BENCH_sweep.json`` section another benchmark owns
KEPT_SECTIONS = ("snapshot",)


def bench_phase(spec: CampaignSpec) -> dict:
    reset_obs()
    started = time.perf_counter()
    result = run_campaign(spec)
    wall = time.perf_counter() - started
    counters = result.metrics["counters"]
    executed = counters.get("runs.completed", 0) + counters.get("runs.failed", 0)
    reset_obs()
    return {
        "wall_seconds": wall,
        "runs_total": executed + result.cache_hits,
        "runs_executed": executed,
        "cache_hits": result.cache_hits,
        "cache_misses": counters.get("cache.misses", 0),
        "executions_per_second": executed / wall,
    }


def bench_round(spec: CampaignSpec) -> tuple:
    """One cold phase on a fresh cache, then one warm phase on it."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = spec.with_overrides(cache_dir=f"{tmp}/cache")
        return bench_phase(spec), bench_phase(spec)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-every", type=int, default=200,
                        help="sweep every Nth generated strategy (default 200)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args()

    spec = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
        workers=args.workers,
        sample_every=args.sample_every,
        obs=ObsConfig(metrics=True),
    )
    bench_round(spec)  # warmup: imports, first fork, page cache
    rounds = [bench_round(spec) for _ in range(ROUNDS)]
    colds = [cold for cold, _ in rounds]
    warms = [warm for _, warm in rounds]

    def counts(phase: dict) -> dict:
        return {key: phase[key]
                for key in ("runs_total", "runs_executed", "cache_hits", "cache_misses")}

    cold_walls = [p["wall_seconds"] for p in colds]
    warm_walls = [p["wall_seconds"] for p in warms]
    section = {
        "benchmark": "cache-aware sweep (cold vs warm run cache)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"protocol": "tcp", "sample_every": args.sample_every,
                   "workers": args.workers},
        "statistic": (f"median and quartiles over {ROUNDS} rounds after a warmup round; "
                      "each round runs cold on a fresh cache, then warm on the same "
                      "cache, and its speedup compares that round's own phases"),
        "rounds": ROUNDS,
        "cold": {
            **counts(colds[0]),
            "wall_seconds": spread(cold_walls),
            "executions_per_second": spread([p["executions_per_second"] for p in colds]),
        },
        "warm": {
            **counts(warms[0]),
            "wall_seconds": spread(warm_walls),
            "speedup_vs_cold": spread([c / w for c, w in zip(cold_walls, warm_walls)]),
        },
        "samples": {
            "cold_wall_seconds": [round(w, 4) for w in cold_walls],
            "warm_wall_seconds": [round(w, 4) for w in warm_walls],
        },
    }
    out = Path(args.out)
    previous = json.loads(out.read_text()) if out.exists() else {}
    payload = dict(section)
    payload.update((key, previous[key]) for key in KEPT_SECTIONS if key in previous)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(section, indent=2))

    executed = max(p["runs_executed"] for p in warms)
    if executed != 0:
        print(f"FAIL: a warm run executed {executed} simulations")
        return 1
    speedup = section["warm"]["speedup_vs_cold"]["median"]
    if speedup < 1.5:
        print(f"FAIL: median warm speedup {speedup}x below 1.5x")
        return 1
    print(f"ok: every warm run hit cache for all {warms[0]['cache_hits']} runs, "
          f"median {speedup}x faster than cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

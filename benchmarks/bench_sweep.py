"""Cache-aware batched sweep benchmark — writes ``BENCH_sweep.json``.

Runs the same campaign twice against one cache directory and once without
batching, and records:

* ``cold``      — empty cache, batched dispatch: the executions/sec the
  batched engine sustains when every run is a miss.
* ``warm``      — identical repeat: every run is a cache hit, zero
  simulations execute.  ``speedup_vs_cold`` is the headline number and
  must clear 1.5x (in practice it is orders of magnitude).
* ``unbatched`` — cold run with ``batch_size=1``, the pre-batching
  dispatch shape, for the round-trip overhead comparison.  Batching
  amortizes per-item pickling/queue overhead, so its win scales with how
  short the runs are; on this workload (~1 s/run) the two shapes are
  within load-balancing noise of each other, which is the honest
  comparison to record.

The ``snapshot`` section that ``bench_snapshot.py`` merges into the same
file is preserved: this script only replaces its own keys.

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
from repro.core.parallel import DEFAULT_BATCH_SIZE
from repro.obs import BUS, METRICS, ObsConfig
from repro.obs import config as obs_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def _reset_obs() -> None:
    BUS.configure(None)
    METRICS.enabled = False
    METRICS.reset()
    obs_config._APPLIED = None


def bench_phase(label: str, spec: CampaignSpec) -> dict:
    _reset_obs()
    started = time.perf_counter()
    result = run_campaign(spec)
    wall = time.perf_counter() - started
    counters = result.metrics["counters"]
    executed = counters.get("runs.completed", 0) + counters.get("runs.failed", 0)
    _reset_obs()
    return {
        "phase": label,
        "batch_size": spec.batch_size,
        "wall_seconds": round(wall, 4),
        "runs_total": executed + result.cache_hits,
        "runs_executed": executed,
        "cache_hits": result.cache_hits,
        "cache_misses": counters.get("cache.misses", 0),
        "executions_per_second": round(executed / wall, 2) if executed else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-every", type=int, default=200,
                        help="sweep every Nth generated strategy (default 200)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sweep.json"))
    args = parser.parse_args()

    def spec(cache_dir: str, batch_size: int) -> CampaignSpec:
        return CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=args.workers,
            sample_every=args.sample_every,
            cache_dir=cache_dir,
            batch_size=batch_size,
            obs=ObsConfig(metrics=True),
        )

    with tempfile.TemporaryDirectory() as tmp:
        cold = bench_phase("cold", spec(f"{tmp}/cache", DEFAULT_BATCH_SIZE))
        warm = bench_phase("warm", spec(f"{tmp}/cache", DEFAULT_BATCH_SIZE))
        unbatched = bench_phase("unbatched", spec(f"{tmp}/cache-unbatched", 1))

    warm["speedup_vs_cold"] = round(cold["wall_seconds"] / warm["wall_seconds"], 2)
    section = {
        "benchmark": "cache-aware batched sweep (cold vs warm vs unbatched)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"protocol": "tcp", "sample_every": args.sample_every,
                   "workers": args.workers},
        "phases": [cold, warm, unbatched],
    }
    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {}
    payload.update(section)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(section, indent=2))

    if warm["runs_executed"] != 0:
        print(f"FAIL: warm run executed {warm['runs_executed']} simulations")
        return 1
    if warm["speedup_vs_cold"] < 1.5:
        print(f"FAIL: warm speedup {warm['speedup_vs_cold']}x below 1.5x")
        return 1
    print(f"ok: warm run hit cache for all {warm['cache_hits']} runs, "
          f"{warm['speedup_vs_cold']}x faster than cold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Fleet telemetry overhead benchmark — merges a ``fleet`` section into
``BENCH_obs.json``.

Runs the same fabric campaign against fresh stores with the telemetry
plane disabled (``telemetry_interval=0``) and publishing status records at
the default cadence, and compares wall time.  Both modes run with the
metrics registry on (the telemetry plane turns it on by itself), so they
differ only by publishing, and each pair must count the same, nonzero
simulated events.  The telemetry plane is one rate-limited ``put`` per
participant per interval plus one registry snapshot, so its overhead on a
local two-worker sweep must stay **under 2%**.

One off/on pair swings by well over that budget on a shared machine, so
after a warmup the script runs ``PAIRS`` pairs in one process, alternating
which mode goes first, and gates on the **median per-pair overhead**.
Every pair is recorded; CI fails the job when the median exceeds the
budget.

The existing ``modes`` section written by ``bench_obs.py`` is preserved:
this script only replaces the ``fleet`` key.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--sample-every N] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro.api import CampaignSpec, run_campaign
from repro.core.executor import TestbedConfig
from repro.fabric import FabricConfig
from repro.obs.config import ObsConfig

from _harness import reset_obs

REPO_ROOT = Path(__file__).resolve().parent.parent

#: telemetry overhead budget on a local sweep (fraction of wall time)
OVERHEAD_BUDGET_PCT = 2.0
#: off/on pairs the median overhead is taken over
PAIRS = 5
#: (mode, telemetry_interval) of the two sides of a pair
OFF = ("telemetry-off", 0.0)
ON = ("telemetry-on", 1.0)


def _spec(store: str, telemetry_interval: float, sample_every: int) -> CampaignSpec:
    return CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant="linux-3.13",
                              duration=1.0, file_size=500_000),
        workers=2,
        sample_every=sample_every,
        fabric=FabricConfig(store=store, telemetry_interval=telemetry_interval,
                            lease_size=2),
        obs=ObsConfig(metrics=True),
    )


def bench_mode(mode: str, telemetry_interval: float, sample_every: int) -> dict:
    reset_obs()
    with tempfile.TemporaryDirectory() as store:
        started = time.perf_counter()
        result = run_campaign(_spec("dir://" + store, telemetry_interval, sample_every))
        wall = time.perf_counter() - started
    reset_obs()
    counters = (result.metrics or {}).get("counters", {})
    return {
        "mode": mode,
        "telemetry_interval": telemetry_interval,
        "strategies": result.strategies_tried,
        "wall_seconds": round(wall, 4),
        "sim_events": int(counters.get("sim.events", 0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-every", type=int, default=40,
                        help="strategy sampling rate for the benchmark sweep")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_obs.json"))
    args = parser.parse_args()

    # warm caches (imports, first-simulation setup) outside the timed runs
    bench_mode("warmup", 0.0, args.sample_every * 4)

    pairs = []
    for index in range(PAIRS):
        order = (OFF, ON) if index % 2 == 0 else (ON, OFF)
        runs = {mode: bench_mode(mode, interval, args.sample_every) for mode, interval in order}
        off, on = runs[OFF[0]], runs[ON[0]]
        if off["sim_events"] != on["sim_events"] or not off["sim_events"]:
            print(f"FAIL: pair {index} simulated different work: "
                  f"sim_events {off['sim_events']} vs {on['sim_events']}")
            return 1
        overhead = round(100.0 * (on["wall_seconds"] - off["wall_seconds"])
                         / off["wall_seconds"], 2)
        pairs.append({"first": order[0][0], "overhead_vs_off_pct": overhead,
                      "modes": [off, on]})
    overhead = round(statistics.median(pair["overhead_vs_off_pct"] for pair in pairs), 2)

    fleet = {
        "benchmark": "fleet telemetry overhead (local 2-worker fabric sweep)",
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "statistic": f"median per-pair overhead over {PAIRS} alternated off/on pairs",
        "overhead_vs_off_pct": overhead,
        "within_budget": overhead < OVERHEAD_BUDGET_PCT,
        "pairs": pairs,
    }

    out = Path(args.out)
    payload = json.loads(out.read_text()) if out.exists() else {
        "benchmark": "observability overhead (sinks off vs on)",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    payload["fleet"] = fleet
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(fleet, indent=2))
    if not fleet["within_budget"]:
        print(f"FAIL: median telemetry overhead {overhead}% exceeds "
              f"{OVERHEAD_BUDGET_PCT}% budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

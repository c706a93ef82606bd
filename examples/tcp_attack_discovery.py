#!/usr/bin/env python3
"""Full SNAKE campaign against one TCP implementation.

Runs the controller end-to-end: baseline, feedback-driven strategy
generation, the sweep, repeat-to-confirm, classification, and clustering
into named attacks.  By default a deterministic 1-in-25 sample of the
strategy space is executed so the example finishes in about a minute; pass
``--sample-every 1`` for the full sweep (the paper's 60-hour campaign,
minutes here).

Run:  python examples/tcp_attack_discovery.py --variant windows-95
"""

import argparse
import time

from repro.api import CampaignSpec, run_campaign
from repro.core import ConfirmationPolicy, TestbedConfig
from repro.core.reporting import render_attack_clusters, render_table1
from repro.tcpstack.variants import TCP_VARIANTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", default="linux-3.13", choices=sorted(TCP_VARIANTS))
    parser.add_argument("--sample-every", type=int, default=25,
                        help="execute 1 in N generated strategies (1 = full sweep)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    spec = CampaignSpec(
        testbed=TestbedConfig(protocol="tcp", variant=args.variant),
        workers=args.workers,
        sample_every=args.sample_every,
        # no noise band: the detector settings of EXPERIMENTS.md's Table I
        confirmation=ConfirmationPolicy(noise_sigmas=0.0),
    )

    started = time.time()
    last = {"stage": None}

    def progress(stage: str, done: int, total: int) -> None:
        if stage != last["stage"] or done == total or done % 50 == 0:
            last["stage"] = stage
            print(f"\r[{time.time() - started:6.1f}s] {stage}: {done}/{total}",
                  end="", flush=True)

    result = run_campaign(spec, progress=progress)
    print()

    print()
    print(f"generated {result.strategies_generated} strategies "
          f"(paper: 5013-5994 for TCP); executed {result.strategies_tried}")
    print()
    print(render_table1([result]))
    print()
    print("attack clusters (Table II mapping):")
    print(render_attack_clusters(result))


if __name__ == "__main__":
    main()

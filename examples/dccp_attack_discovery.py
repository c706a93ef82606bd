#!/usr/bin/env python3
"""SNAKE campaign against the Linux 3.13 DCCP implementation.

DCCP is the paper's second protocol: swapping it in takes nothing more than
a different dot state machine and header description — exactly the
plug-in-a-protocol workflow SNAKE advertises.  The three attacks of Table II
(Acknowledgment Mung, In-window Acknowledgment Sequence Number Modification,
REQUEST Connection Termination) all cluster out of the sweep.

Run:  python examples/dccp_attack_discovery.py --sample-every 10
"""

import argparse
import time

from repro.api import CampaignSpec, run_campaign
from repro.core import ConfirmationPolicy, TestbedConfig
from repro.core.reporting import render_attack_clusters, render_table1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample-every", type=int, default=25,
                        help="execute 1 in N generated strategies (1 = full sweep)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--patched", action="store_true",
                        help="test the hypothetical fixed REQUEST-state implementation")
    args = parser.parse_args()

    variant = "patched-request-dccp" if args.patched else "linux-3.13-dccp"
    spec = CampaignSpec(
        testbed=TestbedConfig(protocol="dccp", variant=variant),
        workers=args.workers,
        sample_every=args.sample_every,
        # no noise band: the detector settings of EXPERIMENTS.md's Table I
        confirmation=ConfirmationPolicy(noise_sigmas=0.0),
    )

    started = time.time()

    def progress(stage: str, done: int, total: int) -> None:
        if done == total or done % 50 == 0:
            print(f"\r[{time.time() - started:6.1f}s] {stage}: {done}/{total}",
                  end="", flush=True)

    result = run_campaign(spec, progress=progress)
    print()

    print()
    print(f"generated {result.strategies_generated} strategies "
          f"(paper: 4508 for DCCP); executed {result.strategies_tried}")
    print()
    print(render_table1([result]))
    print()
    print("attack clusters (Table II mapping):")
    print(render_attack_clusters(result))


if __name__ == "__main__":
    main()

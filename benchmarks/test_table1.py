"""Table I: summary of SNAKE results across all five implementations.

Runs a full campaign (baseline -> generation -> sweep -> confirm ->
classification -> clustering) per implementation.  By default a
deterministic 1-in-N stratified sample of the strategy space executes (set
``SNAKE_FULL=1`` for the paper-scale full sweep); the full enumeration size
is always reported alongside, and it lands in the paper's range
(TCP 5013-5994 strategies, DCCP 4508).

Expected shape versus the paper's Table I:
* thousands of strategies generated per implementation;
* a few percent flagged as attack strategies;
* the majority of flagged strategies classified on-path;
* a handful of hitseqwindow false positives;
* true strategies clustering into the Table II attacks.
"""

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core import ConfirmationPolicy, TestbedConfig
from repro.core.reporting import render_attack_clusters, render_table1

from conftest import record_section, sample_every, worker_count

IMPLEMENTATIONS = (
    ("tcp", "linux-3.0.0"),
    ("tcp", "linux-3.13"),
    ("tcp", "windows-8.1"),
    ("tcp", "windows-95"),
    ("dccp", "linux-3.13-dccp"),
)

_RESULTS = {}


@pytest.mark.parametrize("protocol,variant", IMPLEMENTATIONS,
                         ids=[f"{p}-{v}" for p, v in IMPLEMENTATIONS])
def test_campaign(benchmark, protocol, variant):
    spec = CampaignSpec(
        testbed=TestbedConfig(protocol=protocol, variant=variant),
        workers=worker_count(),
        sample_every=sample_every(),
        # two baseline replicas, no noise band: the recorded Table I rows
        confirmation=ConfirmationPolicy(noise_sigmas=0.0),
    )
    result = benchmark.pedantic(run_campaign, args=(spec,), rounds=1, iterations=1)
    _RESULTS[(protocol, variant)] = result

    # invariants of the paper's shape
    assert result.strategies_tried > 0
    flagged_fraction = len(result.flagged) / result.strategies_tried
    assert flagged_fraction < 0.25, "far too many strategies flagged"
    assert len(result.on_path) + len(result.false_positives) + len(result.true_strategies) \
        == len(result.flagged)

    benchmark.extra_info.update(result.table1_row())

    if len(_RESULTS) == len(IMPLEMENTATIONS):
        ordered = [_RESULTS[key] for key in IMPLEMENTATIONS]
        body = [render_table1(ordered), ""]
        body.append(
            "paper Table I: TCP tried 5013-5994 / found 128-163 / true attacks 3-4;"
        )
        body.append("               DCCP tried 4508 / found 67 / true attacks 3")
        for campaign in ordered:
            body.append("")
            body.append(f"clusters for {campaign.protocol}/{campaign.variant} "
                        f"(generated {campaign.strategies_generated}):")
            body.append(render_attack_clusters(campaign))
        record_section("Table I - summary of SNAKE results", "\n".join(body))

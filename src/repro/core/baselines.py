"""Section VI-C: cost comparison of the three injection models.

The paper compares its state-based strategy generation against two
baselines:

* **time-interval-based** — try every malicious strategy at every 5 us slot
  of the test (the time to send a minimum-size TCP packet at 100 Mbit/s):
  12 million injection points/minute x ~60 strategies = 720 million
  strategies, 24 million CPU-hours, "548 years" at the paper's parallelism.
* **send-packet-based** — try every packet-manipulation strategy on every
  packet actually sent (~13,000 packets/minute x ~53 strategies = 689,000
  strategies, ~23,000 CPU-hours, "about 191 days"); packet injection
  attacks (Reset, SYN-Reset) are *unfindable* under this model.

This module computes the same arithmetic from a measured baseline run of
our testbed, alongside the state-based enumeration actually used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.executor import RunResult
from repro.core.generation import GenerationConfig, LIE_VARIANTS, StrategyGenerator

#: the paper's per-test cost and parallelism
TEST_MINUTES = 2.0
PAPER_PARALLELISM = 5

#: minimum-size-packet serialization time at the paper's 100 Mbit/s
TIME_SLOT_SECONDS = 5e-6


@dataclass
class InjectionModelCost:
    """Cost of one injection model."""

    model: str
    strategies: int
    cpu_hours: float
    wall_days_at_paper_parallelism: float
    supports_offpath: bool
    note: str = ""

    @property
    def wall_years(self) -> float:
        return self.wall_days_at_paper_parallelism / 365.0


@dataclass
class SearchSpaceComparison:
    """The three rows of the Section VI-C comparison."""

    state_based: InjectionModelCost
    send_packet_based: InjectionModelCost
    time_interval_based: InjectionModelCost

    def rows(self) -> List[InjectionModelCost]:
        return [self.state_based, self.send_packet_based, self.time_interval_based]


def manipulation_strategies_per_packet(
    generator: StrategyGenerator, config: Optional[GenerationConfig] = None
) -> int:
    """How many per-packet manipulation strategies exist for one packet
    (the paper's "about 53 different malicious strategies")."""
    cfg = config if config is not None else generator.config
    lie = len(LIE_VARIANTS) * len(generator.header_format.mutable_fields)
    return (
        len(cfg.drop_percents)
        + len(cfg.duplicate_copies)
        + len(cfg.delay_seconds)
        + len(cfg.batch_windows)
        + 1  # reflect
        + lie
    )


def compare_injection_models(
    generator: StrategyGenerator,
    baseline_run: RunResult,
    test_duration_s: Optional[float] = None,
) -> SearchSpaceComparison:
    """Build the comparison from a measured non-attack run."""
    duration = test_duration_s if test_duration_s is not None else baseline_run.duration
    per_packet = manipulation_strategies_per_packet(generator)

    # state-based: the enumeration SNAKE actually runs
    state_strategies = generator.count(baseline_run.observed_pairs)
    state_hours = state_strategies * TEST_MINUTES / 60.0

    # send-packet-based: every observed packet x per-packet manipulations;
    # no injection model, so Reset/SYN-Reset style attacks are out of reach
    packets = baseline_run.packets_observed
    send_strategies = packets * per_packet
    send_hours = send_strategies * TEST_MINUTES / 60.0

    # time-interval-based: every 5us slot x (manipulations + injections)
    slots = int(duration / TIME_SLOT_SECONDS)
    per_slot = per_packet + len(generator.inject_types)
    interval_strategies = slots * per_slot
    interval_hours = interval_strategies * TEST_MINUTES / 60.0

    def days(hours: float) -> float:
        return hours / 24.0 / PAPER_PARALLELISM

    return SearchSpaceComparison(
        state_based=InjectionModelCost(
            "state-based (SNAKE)", state_strategies, state_hours, days(state_hours),
            supports_offpath=True,
            note="strategies applied per (state, packet type) pair",
        ),
        send_packet_based=InjectionModelCost(
            "send-packet-based", send_strategies, send_hours, days(send_hours),
            supports_offpath=False,
            note=f"{packets} packets x {per_packet} manipulations; cannot find Reset/SYN-Reset",
        ),
        time_interval_based=InjectionModelCost(
            "time-interval-based", interval_strategies, interval_hours, days(interval_hours),
            supports_offpath=True,
            note=f"{slots} injection slots of {TIME_SLOT_SECONDS * 1e6:.0f}us x {per_slot} strategies",
        ),
    )

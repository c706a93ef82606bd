"""Simulation oracle that holds across commits.

Every other determinism check in the suite compares two paths of the same
code (forked == full, fabric == plain, cached == fresh).  This one pins
what the simulator computes: each entry of ``tests/data/run_digests.json``
is the BLAKE2b digest of one canonical :class:`RunResult`, so a change that
shifts a single event, byte or counter of these runs fails here.

A change that alters simulated outcomes on purpose (one that merges events
or reorders same-time ties, say) regenerates the file and says so::

    PYTHONPATH=src python tests/test_run_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.core.executor import Executor, RunResult, TestbedConfig
from repro.core.generation import StrategyGenerator
from repro.core.strategy import Strategy
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine

DATA = Path(__file__).parent / "data" / "run_digests.json"

#: fields outside the determinism contract: real time and trace identity
VOLATILE = ("wall_seconds", "run_id")

CONFIGS = {
    "tcp": TestbedConfig(),
    "dccp": TestbedConfig(protocol="dccp", variant="linux-3.13-dccp"),
}
SETUP = {
    "tcp": (TCP_FORMAT, tcp_state_machine),
    "dccp": (DCCP_FORMAT, dccp_state_machine),
}

#: one generated strategy per (protocol, kind), picked because each one
#: changes the run: proxy matches, injected packets, resets or rng draws
PICKS = {
    "tcp": {"packet": 1053, "inject": 3685, "hitseqwindow": 5649},
    "dccp": {"packet": 577, "inject": 3753, "hitseqwindow": 4795},
}


def run_digest(result: RunResult) -> str:
    """BLAKE2b of the result's canonical JSON, volatile fields removed."""
    data = result.to_dict()
    for key in VOLATILE:
        data.pop(key)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _strategies(protocol: str, baseline: RunResult) -> Dict[int, Strategy]:
    header_format, machine = SETUP[protocol]
    generator = StrategyGenerator(protocol, header_format, machine())
    return {s.strategy_id: s for s in generator.generate(baseline.observed_pairs)}


def compute_entries(protocol: str) -> List[Dict[str, Any]]:
    """Run the baseline and the picked strategies; one entry per run."""
    executor = Executor(CONFIGS[protocol])
    baseline = executor.run(None)
    entries = [_entry(protocol, "baseline", None, baseline)]
    strategies = _strategies(protocol, baseline)
    for kind, strategy_id in PICKS[protocol].items():
        strategy = strategies[strategy_id]
        assert strategy.kind == kind, strategy
        entries.append(_entry(protocol, kind, strategy, executor.run(strategy)))
    return entries


def _entry(
    protocol: str, kind: str, strategy: Optional[Strategy], result: RunResult
) -> Dict[str, Any]:
    return {
        "name": f"{protocol}-{kind}",
        "strategy": None if strategy is None else strategy.describe(),
        "events_processed": result.events_processed,
        "digest": run_digest(result),
    }


def _recorded(protocol: str) -> List[Dict[str, Any]]:
    entries = json.loads(DATA.read_text(encoding="utf-8"))["runs"]
    return [entry for entry in entries if entry["name"].startswith(protocol + "-")]


@pytest.mark.parametrize("protocol", sorted(CONFIGS))
def test_run_results_match_recorded_digests(protocol):
    recorded = _recorded(protocol)
    assert len(recorded) == 1 + len(PICKS[protocol])
    # compare the cheap, readable fields first so a failure says which run
    # moved and by how many events before it shows two opaque digests
    computed = compute_entries(protocol)
    for expected, actual in zip(recorded, computed):
        assert actual["name"] == expected["name"]
        assert actual["strategy"] == expected["strategy"], "strategy generation changed"
        assert actual["events_processed"] == expected["events_processed"], actual["name"]
        assert actual["digest"] == expected["digest"], actual["name"]


def test_digest_ignores_volatile_fields():
    result = RunResult(strategy_id=1, protocol="tcp", variant="linux-3.13", duration=1.0)
    moved = RunResult(strategy_id=1, protocol="tcp", variant="linux-3.13", duration=1.0,
                      wall_seconds=3.5, run_id="sweep-1-a0")
    assert run_digest(result) == run_digest(moved)
    moved.target_bytes = 1
    assert run_digest(result) != run_digest(moved)


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    runs = [entry for protocol in sorted(CONFIGS) for entry in compute_entries(protocol)]
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps({"runs": runs}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} digests to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Simulation oracle that holds across commits.

Every other determinism check in the suite compares two paths of the same
code (forked == full, fabric == plain, cached == fresh).  This one pins
what the simulator computes: each entry of ``tests/data/run_digests.json``
is the BLAKE2b digest of one canonical :class:`RunResult`, so a change that
shifts a single event, byte or counter of these runs fails here.

A change that alters simulated outcomes on purpose (one that merges events
or reorders same-time ties, say) regenerates the file and says so::

    PYTHONPATH=src python tests/test_run_digests.py --write

The file also records ``CACHE_VERSION`` and each run's ``run_fingerprint``.
A run fingerprint does not cover the simulator's code, so a digest that
moves while its fingerprint stays would let a warm run cache serve the old
result beside new ones (cached != fresh).  ``--write`` refuses that and
exits 1 until ``CACHE_VERSION`` is bumped, which moves every fingerprint.
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.core.cache import CACHE_VERSION, run_fingerprint
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
        "fingerprint": run_fingerprint(CONFIGS[protocol], strategy, None),
        "events_processed": result.events_processed,
        "digest": run_digest(result),
    }


def _document() -> Dict[str, Any]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def _recorded(protocol: str) -> List[Dict[str, Any]]:
    entries = _document()["runs"]
    return [entry for entry in entries if entry["name"].startswith(protocol + "-")]


def unversioned_changes(
    recorded: List[Dict[str, Any]], computed: List[Dict[str, Any]]
) -> List[str]:
    """Names of the runs whose digest moved while their fingerprint did not."""
    before = {entry["name"]: entry for entry in recorded}
    return [
        entry["name"] for entry in computed
        if entry["name"] in before
        and before[entry["name"]].get("fingerprint") == entry["fingerprint"]
        and before[entry["name"]]["digest"] != entry["digest"]
    ]


def test_recorded_under_the_current_cache_version():
    assert _document()["cache_version"] == CACHE_VERSION


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
        assert actual["fingerprint"] == expected["fingerprint"], actual["name"]
        assert actual["events_processed"] == expected["events_processed"], actual["name"]
        assert actual["digest"] == expected["digest"], actual["name"]


def test_digest_ignores_volatile_fields():
    result = RunResult(strategy_id=1, protocol="tcp", variant="linux-3.13", duration=1.0)
    moved = RunResult(strategy_id=1, protocol="tcp", variant="linux-3.13", duration=1.0,
                      wall_seconds=3.5, run_id="sweep-1-a0")
    assert run_digest(result) == run_digest(moved)
    moved.target_bytes = 1
    assert run_digest(result) != run_digest(moved)


def test_write_refuses_a_digest_change_under_the_same_fingerprint():
    recorded = [{"name": "tcp-baseline", "fingerprint": "f1", "digest": "d1"},
                {"name": "tcp-packet", "fingerprint": "f2", "digest": "d2"}]
    assert unversioned_changes(recorded, recorded) == []
    moved = [dict(recorded[0], digest="d9"), recorded[1]]
    assert unversioned_changes(recorded, moved) == ["tcp-baseline"]
    # a new fingerprint (a CACHE_VERSION bump, or another run) may move
    bumped = [dict(entry, fingerprint=entry["fingerprint"] + "'") for entry in moved]
    assert unversioned_changes(recorded, bumped) == []


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    runs = [entry for protocol in sorted(CONFIGS) for entry in compute_entries(protocol)]
    if DATA.exists():
        stale = unversioned_changes(_document()["runs"], runs)
        if stale:
            print(f"refusing to write {DATA}: the digests of {', '.join(stale)} changed "
                  "while their run fingerprints did not, so a warm run cache would serve "
                  "the old results; bump CACHE_VERSION in src/repro/core/cache.py first",
                  file=sys.stderr)
            return 1
    DATA.parent.mkdir(parents=True, exist_ok=True)
    document = {"cache_version": CACHE_VERSION, "runs": runs}
    DATA.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} digests to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

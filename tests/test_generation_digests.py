"""Enumeration oracle that holds across commits.

``tests/test_run_digests.py`` pins a handful of strategy ids; this pins the
whole campaign each implementation enumerates.  Each entry of
``tests/data/generation_digests.json`` is the strategy count and the BLAKE2b
digest of ``[(strategy_id, canonical_form())]`` over ``generate(pairs)`` at
fixed observed pairs, so no simulation runs.  The TCP variants go through
``Controller.make_generator()`` so each one gets its own receive window.

A change that alters the enumeration on purpose regenerates the file and
says so::

    PYTHONPATH=src python tests/test_generation_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import pytest

from repro.api import CampaignSpec
from repro.core.controller import Controller
from repro.core.executor import TestbedConfig
from repro.core.strategy import Strategy

DATA = Path(__file__).parent / "data" / "generation_digests.json"

TCP_PAIRS = [("CLOSED", "SYN"), ("SYN_RCVD", "SYN+ACK"), ("ESTABLISHED", "ACK"),
             ("ESTABLISHED", "PSH+ACK"), ("ESTABLISHED", "FIN+ACK"),
             ("FIN_WAIT_1", "RST"), ("FIN_WAIT_2", "RST"), ("FIN_WAIT_2", "ACK"),
             ("CLOSE_WAIT", "PSH+ACK"), ("CLOSED", "ACK"), ("CLOSED", "PSH+ACK"),
             ("CLOSED", "RST+ACK"), ("FIN_WAIT_2", "FIN+ACK")]
DCCP_PAIRS = [("CLOSED", "REQUEST"), ("RESPOND", "RESPONSE"), ("OPEN", "DATAACK"),
              ("OPEN", "ACK"), ("PARTOPEN", "ACK"), ("PARTOPEN", "DATAACK"),
              ("OPEN", "CLOSE"), ("CLOSED", "ACK"), ("CLOSED", "RESET")]

#: implementation name -> (protocol, observed pairs)
IMPLEMENTATIONS: Dict[str, Tuple[str, Sequence[Tuple[str, str]]]] = {
    "linux-3.0.0": ("tcp", TCP_PAIRS),
    "linux-3.13": ("tcp", TCP_PAIRS),
    "windows-8.1": ("tcp", TCP_PAIRS),
    "windows-95": ("tcp", TCP_PAIRS),
    "linux-3.13-dccp": ("dccp", DCCP_PAIRS),
}


def enumeration_digest(strategies: Sequence[Strategy]) -> str:
    """BLAKE2b of the ``(strategy_id, canonical_form())`` list."""
    pairs = [(s.strategy_id, s.canonical_form()) for s in strategies]
    blob = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def compute_entry(variant: str) -> Dict[str, Any]:
    protocol, pairs = IMPLEMENTATIONS[variant]
    spec = CampaignSpec(testbed=TestbedConfig(protocol=protocol, variant=variant))
    strategies = Controller(spec).make_generator().generate(pairs)
    return {
        "name": variant,
        "count": len(strategies),
        "digest": enumeration_digest(strategies),
    }


def _recorded() -> Dict[str, Dict[str, Any]]:
    entries = json.loads(DATA.read_text(encoding="utf-8"))["enumerations"]
    return {entry["name"]: entry for entry in entries}


@pytest.mark.parametrize("variant", sorted(IMPLEMENTATIONS))
def test_enumeration_matches_recorded_digest(variant):
    expected = _recorded()[variant]
    actual = compute_entry(variant)
    assert actual["count"] == expected["count"], "campaign size changed"
    assert actual["digest"] == expected["digest"], "ids, order or parameters changed"


def test_every_implementation_is_recorded():
    assert sorted(_recorded()) == sorted(IMPLEMENTATIONS)


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    entries = [compute_entry(variant) for variant in sorted(IMPLEMENTATIONS)]
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps({"enumerations": entries}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

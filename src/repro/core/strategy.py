"""The attack-strategy model.

A strategy is what the controller hands an executor: one malicious behaviour
to apply for one test run.  Three kinds exist, mirroring Section IV:

* ``packet`` — apply a basic attack (drop/duplicate/delay/batch/reflect/lie)
  to every packet of ``packet_type`` whose sender is in ``state``;
* ``inject`` — forge ``count`` packets of one type at a trigger point;
* ``hitseqwindow`` — sweep forged packets across the sequence space at
  receive-window intervals.

Strategies are plain data (picklable) so they can cross process boundaries
to parallel executors, exactly like the paper's controller ships strategies
to executor machines over TCP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

def _jsonable(value: Any) -> Any:
    """Recursively normalize to JSON-representable types (tuples -> lists)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return _CANONICAL.encode(_jsonable(value))


KIND_PACKET = "packet"
KIND_INJECT = "inject"
KIND_HITSEQWINDOW = "hitseqwindow"

KINDS = (KIND_PACKET, KIND_INJECT, KIND_HITSEQWINDOW)


@dataclass
class Strategy:
    """One attack strategy."""

    strategy_id: int
    protocol: str  # "tcp" | "dccp"
    kind: str
    #: packet-kind match: sender state and packet type
    state: Optional[str] = None
    packet_type: Optional[str] = None
    #: basic attack name for packet kind (drop/duplicate/delay/batch/reflect/lie)
    action: Optional[str] = None
    #: action or campaign parameters
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == KIND_PACKET:
            if not (self.state and self.packet_type and self.action):
                raise ValueError("packet strategy needs state, packet_type and action")

    @property
    def is_offpath(self) -> bool:
        return self.kind in (KIND_INJECT, KIND_HITSEQWINDOW)

    def canonical_form(self) -> Dict[str, Any]:
        """Identity of the *behaviour*, independent of ``strategy_id``.

        Two strategies with equal canonical forms install identical proxy
        rules/campaigns and therefore produce identical runs for a given
        (config, seed).  This is the deduplication key and one third of the
        run-cache fingerprint; enumeration order (which assigns ids) never
        leaks into it.  Tuples inside ``params`` (e.g. triggers) normalize
        to lists so the form is JSON-stable.
        """
        return {
            "protocol": self.protocol,
            "kind": self.kind,
            "state": self.state,
            "packet_type": self.packet_type,
            "action": self.action,
            "params": _jsonable(self.params),
        }

    @cached_property
    def canonical_key(self) -> str:
        """:meth:`canonical_form` as canonical JSON, built once per instance.

        The deduplication key and the strategy's part of every run
        fingerprint.  Memoised on the instance, never by value, so it holds
        only while nothing assigns a field after construction (nothing
        does).  Concurrent first reads compute the same string.
        """
        return _CANONICAL.encode(self.canonical_form())

    def describe(self) -> str:
        if self.kind == KIND_PACKET:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return (
                f"[{self.strategy_id}] {self.action}({extras}) on "
                f"{self.packet_type} in {self.state}"
            )
        target = self.params.get("dst", "?")
        ptype = self.params.get("packet_type", "?")
        trigger = self.params.get("trigger", "?")
        return f"[{self.strategy_id}] {self.kind} {ptype} -> {target} at {trigger}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()

"""State-aware attack-strategy generation (Section IV-C).

Packet strategies are generated from *feedback*: the (sender state, packet
type) pairs the proxy's tracker observed in the baseline run — "we implement
our controller to generate them a few at a time in response to feedback
about packet types and protocol states observed".  Off-path strategies
(inject, hitseqwindow) are generated for *every* state of the protocol state
machine — "we also use the protocol state machine to ensure that we test all
protocol states" — plus time-triggered variants aimed at the competing
connection, which the proxy cannot track.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.strategy import KIND_HITSEQWINDOW, KIND_INJECT, KIND_PACKET, Strategy
from repro.packets.header import HeaderFormat
from repro.statemachine.machine import StateMachine

#: canonical packet types used for forging, per protocol
TCP_INJECT_TYPES = ("SYN", "SYN+ACK", "ACK", "PSH+ACK", "FIN+ACK", "RST", "RST+ACK", "NONE")
DCCP_INJECT_TYPES = (
    "REQUEST",
    "RESPONSE",
    "DATA",
    "ACK",
    "DATAACK",
    "CLOSEREQ",
    "CLOSE",
    "RESET",
    "SYNC",
    "SYNCACK",
)

#: lie modes tried per field: (mode, operand)
LIE_VARIANTS: Tuple[Tuple[str, int], ...] = (
    ("zero", 0),
    ("max", 0),
    ("random", 0),
    ("set", 1),
    ("set", 555),
    ("set", 65535),
    ("set", 0x7FFFFFFF),
    ("add", 1),
    ("add", 50),
    ("add", 1000),
    ("sub", 1),
    ("sub", 1000),
    ("mul", 2),
    ("mul", 10),
    ("div", 2),
    ("div", 10),
)


@dataclass
class GenerationConfig:
    """Knobs for the enumeration; defaults give campaign sizes in the same
    range as the paper's (thousands of strategies per implementation)."""

    drop_percents: Sequence[int] = (10, 25, 50, 75, 100)
    duplicate_copies: Sequence[int] = (1, 3, 10)
    delay_seconds: Sequence[float] = (0.05, 0.2, 1.0, 5.0)
    batch_windows: Sequence[float] = (0.1, 0.5, 2.0)
    inject_counts: Sequence[int] = (1, 3, 10, 100)
    inject_interval: float = 0.01
    #: sweep densities: inter-packet interval for hitseqwindow
    hsw_intervals: Sequence[float] = (0.004, 0.0015)
    #: stride divisors relative to the receive window (1 -> exactly rwnd)
    hsw_stride_divisors: Sequence[int] = (1, 4)
    #: repeat time-triggered injections at this offset from test start
    offpath_trigger_time: float = 1.0
    #: network/topology knowledge the off-path attacker is assumed to have
    #: (OS-default receive window, server port, first ephemeral port)
    receive_window: int = 262144
    sequence_space: int = 1 << 24
    server_port: int = 80
    client_ephemeral_port: int = 40000
    #: payload size for data-bearing forged packets
    forged_payload: int = 1400


@dataclass
class EndpointInfo:
    """Addressing of one tracked or competing connection."""

    client_addr: str
    server_addr: str
    client_port: int
    server_port: int
    tracked: bool  # proxy can see/track this connection


class StrategyGenerator:
    """Enumerates strategies for one protocol under test."""

    def __init__(
        self,
        protocol: str,
        header_format: HeaderFormat,
        machine: StateMachine,
        config: GenerationConfig = None,
        target: Optional[EndpointInfo] = None,
        competing: Optional[EndpointInfo] = None,
    ):
        self.protocol = protocol
        self.header_format = header_format
        self.machine = machine
        self.config = config if config is not None else GenerationConfig()
        default_client_port = 40000 if protocol == "tcp" else 42000
        default_server_port = 80 if protocol == "tcp" else 5001
        self.target = target or EndpointInfo(
            "client1", "server1", default_client_port, default_server_port, tracked=True
        )
        self.competing = competing or EndpointInfo(
            "client2", "server2", default_client_port, default_server_port, tracked=False
        )
        self._next_id = 1

    # ------------------------------------------------------------------
    def _new(self, **kwargs: object) -> Strategy:
        strategy = Strategy(strategy_id=self._next_id, protocol=self.protocol, **kwargs)  # type: ignore[arg-type]
        self._next_id += 1
        return strategy

    @property
    def inject_types(self) -> Tuple[str, ...]:
        return TCP_INJECT_TYPES if self.protocol == "tcp" else DCCP_INJECT_TYPES

    # ------------------------------------------------------------------
    # packet strategies from observed feedback
    # ------------------------------------------------------------------
    def packet_strategies(self, observed_pairs: Iterable[Tuple[str, str]]) -> List[Strategy]:
        """One strategy per (pair, basic attack, parameter choice)."""
        strategies: List[Strategy] = []
        cfg = self.config
        for state, ptype in sorted(observed_pairs):
            for percent in cfg.drop_percents:
                strategies.append(
                    self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                              action="drop", params={"percent": percent})
                )
            for copies in cfg.duplicate_copies:
                strategies.append(
                    self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                              action="duplicate", params={"copies": copies})
                )
            for seconds in cfg.delay_seconds:
                strategies.append(
                    self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                              action="delay", params={"seconds": seconds})
                )
            for window in cfg.batch_windows:
                strategies.append(
                    self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                              action="batch", params={"window": window})
                )
            strategies.append(
                self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                          action="reflect", params={})
            )
            for spec in self.header_format.mutable_fields:
                for mode, operand in LIE_VARIANTS:
                    strategies.append(
                        self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                                  action="lie",
                                  params={"field": spec.name, "mode": mode, "operand": operand})
                    )
        return strategies

    # ------------------------------------------------------------------
    # off-path strategies across all machine states
    # ------------------------------------------------------------------
    def inject_strategies(self) -> List[Strategy]:
        """State-triggered injection at the tracked connection, for every
        state of the machine, plus time-triggered injection at the
        competing connection."""
        strategies: List[Strategy] = []
        cfg = self.config
        field_templates: Tuple[Dict[str, object], ...] = (
            {},
            {"seq": "random"},
            {"ack": "random"},
            {"seq": "random", "ack": "random"},
        )
        # state-triggered at the tracked connection
        for state in sorted(self.machine.states):
            for ptype in self.inject_types:
                for toward_client in (True, False):
                    for template in field_templates:
                        for count in cfg.inject_counts:
                            strategies.append(self._inject(
                                self.target, toward_client, ptype, template, count,
                                trigger=("state", "client" if toward_client else "server", state),
                            ))
        # time-triggered at the competing connection (untrackable)
        for ptype in self.inject_types:
            for toward_client in (True, False):
                for template in ({}, {"seq": "random", "ack": "random"}):
                    for count in cfg.inject_counts:
                        strategies.append(self._inject(
                            self.competing, toward_client, ptype, template, count,
                            trigger=("time", cfg.offpath_trigger_time),
                        ))
        return strategies

    def _inject(
        self,
        conn: EndpointInfo,
        toward_client: bool,
        ptype: str,
        template: Dict[str, object],
        count: int,
        trigger: Tuple,
    ) -> Strategy:
        if toward_client:
            src, dst = conn.server_addr, conn.client_addr
            sport, dport = conn.server_port, conn.client_port
        else:
            src, dst = conn.client_addr, conn.server_addr
            sport, dport = conn.client_port, conn.server_port
        payload = self.config.forged_payload if ptype in ("PSH+ACK", "DATA", "DATAACK") else 0
        return self._new(
            kind=KIND_INJECT,
            params={
                "src": src, "dst": dst, "sport": sport, "dport": dport,
                "packet_type": ptype, "fields": dict(template), "count": count,
                "interval": self.config.inject_interval, "payload_len": payload,
                "trigger": trigger,
            },
        )

    def hitseqwindow_strategies(self) -> List[Strategy]:
        """Sequence-space sweeps at both connections, both directions."""
        strategies: List[Strategy] = []
        cfg = self.config
        sweep_types = (
            ("RST", 0), ("SYN", 0), ("ACK", 0), ("FIN+ACK", 0), ("PSH+ACK", cfg.forged_payload)
        ) if self.protocol == "tcp" else (
            ("RESET", 0), ("SYNC", 0), ("ACK", 0), ("CLOSE", 0), ("DATA", cfg.forged_payload)
        )
        for conn in (self.target, self.competing):
            trigger = (
                ("state", "client", "ESTABLISHED" if self.protocol == "tcp" else "OPEN")
                if conn.tracked
                else ("time", cfg.offpath_trigger_time)
            )
            for toward_client in (True, False):
                for ptype, payload in sweep_types:
                    for divisor in cfg.hsw_stride_divisors:
                        for interval in cfg.hsw_intervals:
                            stride = max(1, cfg.receive_window // divisor)
                            count = cfg.sequence_space // stride + 2
                            if toward_client:
                                src, dst = conn.server_addr, conn.client_addr
                                sport, dport = conn.server_port, conn.client_port
                            else:
                                src, dst = conn.client_addr, conn.server_addr
                                sport, dport = conn.client_port, conn.server_port
                            strategies.append(self._new(
                                kind=KIND_HITSEQWINDOW,
                                params={
                                    "src": src, "dst": dst, "sport": sport, "dport": dport,
                                    "packet_type": ptype, "stride": stride, "count": count,
                                    "interval": interval, "payload_len": payload,
                                    "space": cfg.sequence_space, "trigger": trigger,
                                },
                            ))
        return strategies

    # ------------------------------------------------------------------
    # extension: combination strategies (the paper's future work)
    # ------------------------------------------------------------------
    def combo_strategies(self, observed_pairs: Iterable[Tuple[str, str]]) -> List[Strategy]:
        """Two-step sequences of basic attacks per observed pair.

        Not part of :meth:`generate` — the paper's campaigns used single
        actions only, and Table I accounting stays faithful to that.  The
        ablation bench and the combination-attacks example opt in.
        """
        first_steps = (
            {"action": "lie", "field": "seq", "mode": "add", "operand": 1000},
            {"action": "lie", "field": "ack", "mode": "zero", "operand": 0},
            {"action": "duplicate", "copies": 3},
            {"action": "delay", "seconds": 0.2},
        )
        second_steps = (
            {"action": "delay", "seconds": 0.5},
            {"action": "duplicate", "copies": 3},
            {"action": "drop", "percent": 50},
        )
        strategies: List[Strategy] = []
        for state, ptype in sorted(observed_pairs):
            for first in first_steps:
                for second in second_steps:
                    if first["action"] == second["action"]:
                        continue
                    strategies.append(
                        self._new(kind=KIND_PACKET, state=state, packet_type=ptype,
                                  action="combo",
                                  params={"steps": [dict(first), dict(second)]})
                    )
        return strategies

    # ------------------------------------------------------------------
    def generate(self, observed_pairs: Iterable[Tuple[str, str]]) -> List[Strategy]:
        """The full campaign for one implementation under test."""
        return (
            self.packet_strategies(observed_pairs)
            + self.inject_strategies()
            + self.hitseqwindow_strategies()
        )


# ----------------------------------------------------------------------
# snapshot prefix grouping
# ----------------------------------------------------------------------
def snapshot_descriptor(strategy: Optional[Strategy]) -> Optional[Tuple[str, str, str]]:
    """The trigger descriptor a snapshot prefix is keyed on, or ``None``.

    ``("pair", state, packet_type)`` for packet strategies (armed when the
    tracker first observes that pair), ``("state", role, state)`` for
    state-triggered off-path campaigns (armed when that endpoint first
    enters the state).  ``None`` marks a strategy snapshot-ineligible:
    baseline runs, and time-triggered campaigns — their ``arm()`` schedules
    the fire *relative to arming time*, so arming late on a forked world
    would shift the attack.
    """
    if strategy is None:
        return None
    if strategy.kind == KIND_PACKET:
        return ("pair", str(strategy.state), str(strategy.packet_type))
    if strategy.kind in (KIND_INJECT, KIND_HITSEQWINDOW):
        trigger = tuple(strategy.params.get("trigger") or ())
        if len(trigger) == 3 and trigger[0] == "state":
            return ("state", str(trigger[1]), str(trigger[2]))
    return None


def prefix_sort_key(strategy: Optional[Strategy]) -> Tuple[int, str, str, str]:
    """Deterministic ordering that clusters strategies sharing a prefix.

    The dispatcher sorts pending sweep slots by this key when snapshotting
    is enabled, so consecutive slots, pulled one at a time by idle workers,
    fork from the same snapshot and the per-worker snapshot LRU stays hot.
    Ineligible strategies sort last.
    """
    descriptor = snapshot_descriptor(strategy)
    if descriptor is None:
        return (1, "", "", "")
    return (0, descriptor[0], descriptor[1], descriptor[2])


# ----------------------------------------------------------------------
# parameter-equivalence deduplication
# ----------------------------------------------------------------------
@dataclass
class DedupReport:
    """What :func:`dedupe_strategies` collapsed before execution.

    ``collapsed`` maps each removed strategy id to the id of the kept
    representative with the same canonical form, so Table I accounting and
    attack clustering can still name every enumerated strategy.
    """

    unique: List[Strategy]
    collapsed: Dict[int, int] = field(default_factory=dict)

    @property
    def collapsed_count(self) -> int:
        return len(self.collapsed)


def dedupe_strategies(strategies: Sequence[Strategy]) -> DedupReport:
    """Collapse parameter-equivalent strategies, keeping first occurrences.

    The enumeration can emit behaviourally identical strategies under
    different ids — e.g. ``hitseqwindow`` stride divisors that clamp to the
    same stride for a small receive window, or user configs with repeated
    parameter values.  Executing them separately wastes whole simulator
    runs on answers we already have, so the controller runs only one
    representative per :meth:`~repro.core.strategy.Strategy.canonical_form`
    and records the collapse.  Order is preserved, so a deduplicated
    campaign with no duplicates is byte-identical to an undeduplicated one.
    """
    seen: Dict[str, int] = {}
    report = DedupReport(unique=[])
    for strategy in strategies:
        key = json.dumps(strategy.canonical_form(), sort_keys=True,
                         separators=(",", ":"))
        representative = seen.get(key)
        if representative is None:
            seen[key] = strategy.strategy_id
            report.unique.append(strategy)
        else:
            report.collapsed[strategy.strategy_id] = representative
    return report

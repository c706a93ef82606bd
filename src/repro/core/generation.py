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

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    range as the paper's (thousands of strategies per implementation).

    A campaign (``Controller.make_generator``) fills two of them from its
    testbed, whatever the spec says: ``receive_window`` from the TCP
    variant's default window, and ``sequence_space`` from ``iss_space``.
    """

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


@dataclass(frozen=True)
class _Family:
    """One family of the enumeration, declared as a product of its axes.

    ``itertools.product(*axes)`` lists the family's strategies in
    enumeration order, and ``build(strategy_id, values)`` turns one element
    of that product into its strategy, with a fresh ``params`` dict.
    """

    axes: Tuple[Sequence[Any], ...]
    build: Callable[[int, Tuple[Any, ...]], Strategy]

    def __len__(self) -> int:
        return math.prod(len(axis) for axis in self.axes)


def _walk(families: Sequence[_Family], step: int = 1) -> List[Strategy]:
    """Every ``step``-th strategy of ``families`` laid end to end, from the
    first.  A strategy's id is its 1-based position in that sequence, and
    only the kept strategies are built."""
    strategies: List[Strategy] = []
    offset = 0
    for family in families:
        start = -offset % step
        ids = itertools.count(offset + start + 1, step)
        kept = itertools.islice(itertools.product(*family.axes), start, None, step)
        strategies.extend(family.build(strategy_id, values)
                          for strategy_id, values in zip(ids, kept))
        offset += len(family)
    return strategies


class StrategyGenerator:
    """Enumerates strategies for one protocol under test.

    The campaign is four families laid end to end: packet strategies per
    sorted observed pair, state-triggered injection, time-triggered
    injection and hitseqwindow sweeps.  Ids are positions, so every method
    is a pure function of its arguments; a family method numbers its own
    strategies from 1.
    """

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

    @property
    def inject_types(self) -> Tuple[str, ...]:
        return TCP_INJECT_TYPES if self.protocol == "tcp" else DCCP_INJECT_TYPES

    # ------------------------------------------------------------------
    def generate(
        self, observed_pairs: Iterable[Tuple[str, str]], sample_every: int = 1
    ) -> List[Strategy]:
        """The full campaign for one implementation under test, or every
        ``sample_every``-th strategy of it (ids 1, 1+N, 1+2N, ...).

        Equal to ``generate(observed_pairs)[::sample_every]``, but only the
        kept strategies are built.
        """
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        return _walk(self._families(observed_pairs), sample_every)

    def count(self, observed_pairs: Iterable[Tuple[str, str]]) -> int:
        """``len(generate(observed_pairs))``, from the axis lengths alone."""
        return sum(len(family) for family in self._families(observed_pairs))

    def _families(self, observed_pairs: Iterable[Tuple[str, str]]) -> Tuple[_Family, ...]:
        return (
            self._packet_family(observed_pairs),
            *self._inject_families(),
            self._hitseqwindow_family(),
        )

    # ------------------------------------------------------------------
    # packet strategies from observed feedback
    # ------------------------------------------------------------------
    def packet_strategies(self, observed_pairs: Iterable[Tuple[str, str]]) -> List[Strategy]:
        """One strategy per (pair, basic attack, parameter choice)."""
        return _walk((self._packet_family(observed_pairs),))

    def _packet_family(self, observed_pairs: Iterable[Tuple[str, str]]) -> _Family:
        cfg = self.config
        # (action, params items) per basic attack and parameter choice
        attacks: List[Tuple[str, Tuple[Tuple[str, Any], ...]]] = [
            *(("drop", (("percent", percent),)) for percent in cfg.drop_percents),
            *(("duplicate", (("copies", copies),)) for copies in cfg.duplicate_copies),
            *(("delay", (("seconds", seconds),)) for seconds in cfg.delay_seconds),
            *(("batch", (("window", window),)) for window in cfg.batch_windows),
            ("reflect", ()),
            *(("lie", (("field", spec.name), ("mode", mode), ("operand", operand)))
              for spec in self.header_format.mutable_fields
              for mode, operand in LIE_VARIANTS),
        ]

        def build(strategy_id: int, values: Tuple[Any, ...]) -> Strategy:
            (state, ptype), (action, params) = values
            return Strategy(strategy_id, self.protocol, KIND_PACKET, state=state,
                            packet_type=ptype, action=action, params=dict(params))

        return _Family((sorted(observed_pairs), attacks), build)

    # ------------------------------------------------------------------
    # off-path strategies across all machine states
    # ------------------------------------------------------------------
    def inject_strategies(self) -> List[Strategy]:
        """State-triggered injection at the tracked connection, for every
        state of the machine, plus time-triggered injection at the
        competing connection."""
        return _walk(self._inject_families())

    def _inject_families(self) -> Tuple[_Family, _Family]:
        cfg = self.config
        templates: Tuple[Dict[str, object], ...] = (
            {},
            {"seq": "random"},
            {"ack": "random"},
            {"seq": "random", "ack": "random"},
        )

        def state_triggered(strategy_id: int, values: Tuple[Any, ...]) -> Strategy:
            state, ptype, to_client, template, count = values
            trigger = ("state", "client" if to_client else "server", state)
            return self._inject(strategy_id, self.target, to_client, ptype, template, count,
                                trigger)

        # the competing connection is untrackable, so its injections fire
        # at a fixed time
        def time_triggered(strategy_id: int, values: Tuple[Any, ...]) -> Strategy:
            ptype, to_client, template, count = values
            return self._inject(strategy_id, self.competing, to_client, ptype, template, count,
                                ("time", cfg.offpath_trigger_time))

        return (
            _Family((sorted(self.machine.states), self.inject_types, (True, False), templates,
                     cfg.inject_counts), state_triggered),
            _Family((self.inject_types, (True, False), (templates[0], templates[3]),
                     cfg.inject_counts), time_triggered),
        )

    @staticmethod
    def _addresses(conn: EndpointInfo, toward_client: bool) -> Dict[str, object]:
        if toward_client:
            return {"src": conn.server_addr, "dst": conn.client_addr,
                    "sport": conn.server_port, "dport": conn.client_port}
        return {"src": conn.client_addr, "dst": conn.server_addr,
                "sport": conn.client_port, "dport": conn.server_port}

    def _inject(
        self,
        strategy_id: int,
        conn: EndpointInfo,
        toward_client: bool,
        ptype: str,
        template: Dict[str, object],
        count: int,
        trigger: Tuple,
    ) -> Strategy:
        payload = self.config.forged_payload if ptype in ("PSH+ACK", "DATA", "DATAACK") else 0
        return Strategy(
            strategy_id, self.protocol, KIND_INJECT,
            params={
                **self._addresses(conn, toward_client),
                "packet_type": ptype, "fields": dict(template), "count": count,
                "interval": self.config.inject_interval, "payload_len": payload,
                "trigger": trigger,
            },
        )

    def hitseqwindow_strategies(self) -> List[Strategy]:
        """Sequence-space sweeps at both connections, both directions."""
        return _walk((self._hitseqwindow_family(),))

    def _hitseqwindow_family(self) -> _Family:
        cfg = self.config
        sweep_types = (
            ("RST", 0), ("SYN", 0), ("ACK", 0), ("FIN+ACK", 0), ("PSH+ACK", cfg.forged_payload)
        ) if self.protocol == "tcp" else (
            ("RESET", 0), ("SYNC", 0), ("ACK", 0), ("CLOSE", 0), ("DATA", cfg.forged_payload)
        )
        established = ("state", "client", "ESTABLISHED" if self.protocol == "tcp" else "OPEN")

        def build(strategy_id: int, values: Tuple[Any, ...]) -> Strategy:
            conn, to_client, (ptype, payload), divisor, interval = values
            stride = max(1, cfg.receive_window // divisor)
            return Strategy(
                strategy_id, self.protocol, KIND_HITSEQWINDOW,
                params={
                    **self._addresses(conn, to_client),
                    "packet_type": ptype, "stride": stride,
                    "count": cfg.sequence_space // stride + 2,
                    "interval": interval, "payload_len": payload,
                    "space": cfg.sequence_space,
                    "trigger": established if conn.tracked else ("time", cfg.offpath_trigger_time),
                },
            )

        return _Family(((self.target, self.competing), (True, False), sweep_types,
                        cfg.hsw_stride_divisors, cfg.hsw_intervals), build)

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
        steps = [(first, second) for first in first_steps for second in second_steps
                 if first["action"] != second["action"]]

        def build(strategy_id: int, values: Tuple[Any, ...]) -> Strategy:
            (state, ptype), (first, second) = values
            return Strategy(strategy_id, self.protocol, KIND_PACKET, state=state,
                            packet_type=ptype, action="combo",
                            params={"steps": [dict(first), dict(second)]})

        return _walk((_Family((sorted(observed_pairs), steps), build),))


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
        key = strategy.canonical_key
        representative = seen.get(key)
        if representative is None:
            seen[key] = strategy.strategy_id
            report.unique.append(strategy)
        else:
            report.collapsed[strategy.strategy_id] = representative
    return report

"""State-machine model built from a dot graph.

Edge labels follow the convention of the classic RFC 793 diagram::

    rcv SYN / snd SYN+ACK       receive-triggered, with a send side effect
    snd FIN+ACK                 send-triggered
    rcv ACK|DATAACK             alternation: any listed type triggers
    rcv *                       wildcard: any packet type triggers

Only packet-observable triggers participate in tracking; labels such as
``app:close`` or ``timeout`` are preserved (they document the protocol) but
never fire from packet observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.statemachine.dot import DotGraph, parse_dot

SND = "snd"
RCV = "rcv"


@dataclass(frozen=True)
class TriggerEvent:
    """A packet-observable event relative to one endpoint."""

    direction: str  # SND or RCV
    packet_type: str

    def __post_init__(self) -> None:
        if self.direction not in (SND, RCV):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class Transition:
    """One edge of the state machine."""

    src: str
    dst: str
    #: trigger direction (snd/rcv), or None for non-packet triggers
    direction: Optional[str]
    #: packet types that fire this transition; empty with wildcard=True means any
    packet_types: FrozenSet[str]
    wildcard: bool
    label: str

    def matches(self, event: TriggerEvent) -> bool:
        if self.direction is None or event.direction != self.direction:
            return False
        return self.wildcard or event.packet_type in self.packet_types


def _parse_label(label: str) -> Tuple[Optional[str], FrozenSet[str], bool]:
    """Extract (direction, packet types, wildcard) from an edge label.

    Only the part before the first ``/`` is the trigger; anything after it is
    a side effect and irrelevant for tracking.
    """
    trigger = label.split("/", 1)[0].strip()
    parts = trigger.split(None, 1)
    if len(parts) != 2 or parts[0] not in (SND, RCV):
        return None, frozenset(), False
    direction, types_text = parts
    if types_text.strip() == "*":
        return direction, frozenset(), True
    types = frozenset(t.strip().upper() for t in types_text.split("|") if t.strip())
    return direction, types, False


class StateMachine:
    """A protocol connection-lifecycle state machine.

    Built from a dot graph whose graph attributes name the initial states:
    ``client_initial`` and ``server_initial`` (e.g. ``CLOSED``/``LISTEN`` for
    TCP).  Transitions are indexed by source state for O(edges-per-state)
    lookup during tracking.
    """

    def __init__(self, graph: DotGraph):
        self.name = graph.name
        self.states: Tuple[str, ...] = tuple(graph.nodes)
        if not self.states:
            raise ValueError("state machine has no states")
        try:
            self.client_initial = graph.attrs["client_initial"]
            self.server_initial = graph.attrs["server_initial"]
        except KeyError as exc:
            raise ValueError(f"dot graph must define graph attribute {exc}") from None
        for initial in (self.client_initial, self.server_initial):
            if initial not in graph.nodes:
                raise ValueError(f"initial state {initial!r} is not declared")
        # tuples: one parsed machine is shared by every caller in a process
        self.transitions: Tuple[Transition, ...] = tuple(
            Transition(edge.src, edge.dst, *_parse_label(edge.label), edge.label)
            for edge in graph.edges
        )
        self._by_src: Dict[str, Tuple[Transition, ...]] = {
            state: tuple(t for t in self.transitions if t.src == state) for state in self.states
        }

    @classmethod
    def from_dot(cls, text: str) -> "StateMachine":
        return cls(parse_dot(text))

    # ------------------------------------------------------------------
    def initial_state(self, role: str) -> str:
        if role == "client":
            return self.client_initial
        if role == "server":
            return self.server_initial
        raise ValueError(f"unknown role {role!r}")

    def next_state(self, state: str, event: TriggerEvent) -> Optional[str]:
        """State reached from ``state`` on ``event``, or None if no edge fires.

        Exact packet-type matches win over wildcard edges, so a state can
        say "RESPONSE advances, anything else resets" (DCCP REQUEST).
        """
        wildcard_dst: Optional[str] = None
        for transition in self._by_src.get(state, ()):
            if not transition.matches(event):
                continue
            if transition.wildcard:
                if wildcard_dst is None:
                    wildcard_dst = transition.dst
            else:
                return transition.dst
        return wildcard_dst

    def outgoing(self, state: str) -> List[Transition]:
        return list(self._by_src.get(state, ()))

    def reachable_states(self) -> FrozenSet[str]:
        """States reachable from either initial state (sanity checking)."""
        frontier = [self.client_initial, self.server_initial]
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            for transition in self._by_src.get(state, ()):
                if transition.dst not in seen:
                    seen.add(transition.dst)
                    frontier.append(transition.dst)
        return frozenset(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateMachine {self.name} states={len(self.states)} transitions={len(self.transitions)}>"

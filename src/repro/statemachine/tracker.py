"""Runtime protocol-state tracking from observed packets.

The tracker is the heart of SNAKE's search-space reduction: it watches the
packets crossing the attack proxy and infers which state each endpoint's
protocol machine is in, *without* instrumenting the implementation.  It also
keeps the per-state statistics the paper describes — packet types and counts
sent/received in each state, time spent in each state, and visit counts —
which the controller's feedback-driven strategy generation consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.obs.bus import BUS
from repro.statemachine.machine import RCV, SND, StateMachine, TriggerEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.packets.header import Header
    from repro.packets.packet import Packet


@dataclass
class StateStats:
    """Statistics for one (endpoint, state) pair."""

    visits: int = 0
    time_in_state: float = 0.0
    packets_sent: Counter = field(default_factory=Counter)
    packets_received: Counter = field(default_factory=Counter)


class EndpointTracker:
    """Tracks one endpoint's position in the state machine."""

    def __init__(self, machine: StateMachine, role: str, address: str):
        self.machine = machine
        self.role = role
        self.address = address
        self.state = machine.initial_state(role)
        self.stats: Dict[str, StateStats] = {}
        self._entered_at = 0.0
        self._enter(self.state, 0.0)
        self.transitions_taken: List[Tuple[float, str, str, str]] = []  # (time, src, event, dst)

    def _stats_for(self, state: str) -> StateStats:
        """``state``'s stats entry, built on its first use only."""
        stats = self.stats.get(state)
        if stats is None:
            stats = self.stats[state] = StateStats()
        return stats

    def _enter(self, state: str, now: float) -> None:
        self._stats_for(state).visits += 1
        self._entered_at = now

    def observe(self, direction: str, packet_type: str, now: float) -> Optional[str]:
        """Feed one packet event; returns the new state if a transition fired."""
        stats = self._stats_for(self.state)
        if direction == SND:
            stats.packets_sent[packet_type] += 1
        else:
            stats.packets_received[packet_type] += 1
        next_state = self.machine.next_state(self.state, TriggerEvent(direction, packet_type))
        if next_state is None or next_state == self.state:
            return None
        stats.time_in_state += now - self._entered_at
        self.transitions_taken.append((now, self.state, f"{direction} {packet_type}", next_state))
        if BUS.enabled:
            BUS.emit(
                "tracker.transition",
                role=self.role,
                sim_time=round(now, 6),
                src=self.state,
                event=f"{direction} {packet_type}",
                dst=next_state,
            )
        self.state = next_state
        self._enter(next_state, now)
        return next_state

    def finish(self, now: float) -> None:
        """Close out the time-in-state accounting at the end of a run."""
        self._stats_for(self.state).time_in_state += now - self._entered_at
        self._entered_at = now


class StateTracker:
    """Tracks both endpoints of one connection from packets at the proxy.

    Parameters
    ----------
    machine:
        The protocol state machine (from the dot spec).
    client_address, server_address:
        Addresses of the two endpoints whose connection is tracked.
    packet_type_fn:
        Maps a header object to its canonical packet-type name
        (:func:`~repro.packets.tcp.tcp_packet_type` or
        :func:`~repro.packets.dccp.dccp_packet_type`).
    """

    def __init__(
        self,
        machine: StateMachine,
        client_address: str,
        server_address: str,
        packet_type_fn: Callable[["Header"], str],
    ):
        self.machine = machine
        self.client = EndpointTracker(machine, "client", client_address)
        self.server = EndpointTracker(machine, "server", server_address)
        self._by_address = {client_address: self.client, server_address: self.server}
        self.packet_type_fn = packet_type_fn
        #: (sender_state, packet_type) pairs seen, for strategy generation
        self.observed_pairs: Set[Tuple[str, str]] = set()
        self.packets_observed = 0
        #: packets between addresses the tracker does not know (e.g. forged
        #: off-path traffic aimed at the competing connection) — the blind
        #: spot the paper's authors triaged by reading packet captures
        self.packets_unmatched = 0
        #: callbacks fired as (role, new_state) on every inferred transition
        self.transition_listeners: List[Callable[[str, str], None]] = []
        #: callbacks fired as (sender_state, packet_type) the first time a
        #: pair is observed — the snapshot engine uses these to find the
        #: event ordinal at which a packet-rule trigger becomes reachable
        self.pair_listeners: List[Callable[[str, str], None]] = []

    # ------------------------------------------------------------------
    def endpoint(self, address: str) -> Optional[EndpointTracker]:
        return self._by_address.get(address)

    def state_of(self, address: str) -> Optional[str]:
        endpoint = self._by_address.get(address)
        return endpoint.state if endpoint is not None else None

    # ------------------------------------------------------------------
    def observe(self, packet: "Packet", now: float) -> Tuple[Optional[str], str]:
        """Observe one packet.

        Returns ``(sender_state_before_packet, packet_type)`` — the pair a
        strategy matches against.  Packets between unknown addresses are
        ignored (the proxy may carry other connections).
        """
        packet_type = self.packet_type_fn(packet.header)
        sender = self._by_address.get(packet.src)
        receiver = self._by_address.get(packet.dst)
        if sender is None and receiver is None:
            self.packets_unmatched += 1
            return None, packet_type
        self.packets_observed += 1
        sender_state = sender.state if sender is not None else None
        if sender_state is not None:
            pair = (sender_state, packet_type)
            if pair not in self.observed_pairs:
                self.observed_pairs.add(pair)
                for listener in list(self.pair_listeners):
                    listener(sender_state, packet_type)
        if sender is not None:
            new_state = sender.observe(SND, packet_type, now)
            if new_state is not None:
                self._fire_transition(sender.role, new_state)
        if receiver is not None:
            new_state = receiver.observe(RCV, packet_type, now)
            if new_state is not None:
                self._fire_transition(receiver.role, new_state)
        return sender_state, packet_type

    def _fire_transition(self, role: str, new_state: str) -> None:
        for listener in list(self.transition_listeners):
            listener(role, new_state)

    def finish(self, now: float) -> None:
        self.client.finish(now)
        self.server.finish(now)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, StateStats]]:
        """Per-endpoint, per-state statistics (for executor reporting)."""
        return {"client": dict(self.client.stats), "server": dict(self.server.stats)}

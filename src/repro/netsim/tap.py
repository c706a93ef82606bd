"""Packet interposition on a link.

The paper modifies NS-3's tap-bridge so the attack proxy can intercept every
packet to/from a designated malicious node.  :class:`LinkTap` is the
equivalent hook here: it wraps both pipes of a link and forwards each packet
to a handler that can pass it through, drop it, modify it, delay it,
duplicate it, or inject entirely new packets.

The handler expresses its decision as a :class:`TapVerdict` — a list of
``(delay_seconds, packet)`` pairs to actually place on the wire.  An empty
verdict drops the packet; multiple entries duplicate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.netsim.link import Link, Pipe
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.node import Host
    from repro.packets.packet import Packet

#: direction constants, relative to the tapped host
EGRESS = "egress"  # packets sent by the tapped host
INGRESS = "ingress"  # packets destined to the tapped host


@dataclass
class TapVerdict:
    """What the handler wants done with an intercepted packet."""

    #: packets to transmit, each after the given additional delay (seconds)
    deliveries: List[Tuple[float, "Packet"]] = field(default_factory=list)

    @classmethod
    def forward(cls, packet: "Packet") -> "TapVerdict":
        return cls([(0.0, packet)])

    @classmethod
    def drop(cls) -> "TapVerdict":
        return cls([])


TapHandler = Callable[["Packet", str], TapVerdict]


class LinkTap:
    """Interposes on both directions of a link, relative to one endpoint.

    Parameters
    ----------
    link:
        The link to tap (in the paper: the malicious client's access link).
    tapped_host:
        The endpoint whose traffic defines the egress/ingress directions.
    handler:
        Callable invoked with ``(packet, direction)``; returns a
        :class:`TapVerdict`.  ``None`` means pass everything through.
    """

    def __init__(self, sim: Simulator, link: Link, tapped_host: "Host", handler: Optional[TapHandler] = None):
        self.sim = sim
        self.link = link
        self.tapped_host = tapped_host
        self.handler = handler
        self._egress_pipe = link.pipe_from(tapped_host)
        self._ingress_pipe = link.pipe_to(tapped_host)
        self._egress_pipe.tap = self._on_egress
        self._ingress_pipe.tap = self._on_ingress
        self.intercepted = 0
        self.dropped = 0
        self.injected = 0

    # ------------------------------------------------------------------
    def remove(self) -> None:
        """Detach the tap; subsequent traffic flows unmodified."""
        self._egress_pipe.tap = None
        self._ingress_pipe.tap = None

    # ------------------------------------------------------------------
    def _on_egress(self, packet: "Packet", pipe: Pipe) -> None:
        self._handle(packet, EGRESS, pipe)

    def _on_ingress(self, packet: "Packet", pipe: Pipe) -> None:
        self._handle(packet, INGRESS, pipe)

    def _handle(self, packet: "Packet", direction: str, pipe: Pipe) -> None:
        self.intercepted += 1
        if self.handler is None:
            pipe.enqueue(packet)
            return
        verdict = self.handler(packet, direction)
        if not verdict.deliveries:
            self.dropped += 1
            return
        for delay, out in verdict.deliveries:
            if delay <= 0:
                pipe.enqueue(out)
            else:
                self.sim.post(delay, pipe.enqueue, out)

    # ------------------------------------------------------------------
    def inject(self, packet: "Packet", direction: str, delay: float = 0.0) -> None:
        """Place a forged packet on the wire, bypassing the handler.

        ``direction`` is relative to the tapped host: ``INGRESS`` packets
        travel toward it, ``EGRESS`` packets away from it (toward the rest of
        the network, e.g. the servers).
        """
        pipe = self._ingress_pipe if direction == INGRESS else self._egress_pipe
        self.injected += 1
        if delay <= 0:
            pipe.enqueue(packet)
        else:
            self.sim.post(delay, pipe.enqueue, packet)

"""Hosts and routers.

A :class:`Host` owns a set of link attachments, a static routing table
(destination address -> link), and a protocol demultiplexer.  A host whose
routing table contains entries for other destinations forwards packets like a
router; a host with registered protocol handlers delivers packets addressed
to itself up the stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, TYPE_CHECKING

from repro.netsim.link import Link, Pipe
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.packets.packet import Packet


class ProtocolHandler(Protocol):
    """Anything that can receive packets from a host's demultiplexer."""

    def on_packet(self, packet: "Packet") -> None:  # pragma: no cover - protocol
        ...


class Host:
    """A network endpoint or router.

    Addresses are opaque strings (``"client1"``, ``"server2"``...).  Routing
    is static: :meth:`add_route` binds a destination address to one of this
    host's links; :meth:`set_default_route` handles everything else.
    """

    def __init__(self, sim: Simulator, name: str, address: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.address = address if address is not None else name
        self.links: List[Link] = []
        # keyed by the link object (not id(link)) so a deepcopied world
        # stays internally consistent: copy.deepcopy's memo maps each
        # link to exactly one copy, and that copy is the key here
        self._out_pipes: Dict[Link, Pipe] = {}
        #: routes resolve straight to the outgoing pipe, one lookup per hop
        self._routes: Dict[str, Pipe] = {}
        self._default_pipe: Optional[Pipe] = None
        self._protocols: Dict[str, ProtocolHandler] = {}
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_no_handler = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, link: Link, out_pipe: Pipe) -> None:
        """Called by :class:`Link` during construction."""
        self.links.append(link)
        self._out_pipes[link] = out_pipe

    def add_route(self, dst_address: str, link: Link) -> None:
        self._routes[dst_address] = self._pipe_on(link)

    def set_default_route(self, link: Link) -> None:
        self._default_pipe = self._pipe_on(link)

    def _pipe_on(self, link: Link) -> Pipe:
        try:
            return self._out_pipes[link]
        except KeyError:
            raise ValueError(f"{self.name} is not attached to {link.name}") from None

    def register_protocol(self, proto: str, handler: ProtocolHandler) -> None:
        self._protocols[proto] = handler

    def protocol(self, proto: str) -> Optional[ProtocolHandler]:
        return self._protocols.get(proto)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def send(self, packet: "Packet") -> None:
        """Transmit a packet originated by this host (:meth:`receive` forwards)."""
        pipe = self._routes.get(packet.dst, self._default_pipe)
        if pipe is None:
            self.packets_dropped_no_route += 1
            return
        pipe.transmit(packet)

    def receive(self, packet: "Packet", pipe: Pipe) -> None:
        """Called by the delivering pipe when a packet arrives."""
        self.packets_received += 1
        dst = packet.dst
        if dst != self.address:
            self.packets_forwarded += 1
            out = self._routes.get(dst, self._default_pipe)
            if out is None:
                self.packets_dropped_no_route += 1
                return
            out.transmit(packet)
            return
        handler = self._protocols.get(packet.proto)
        if handler is None:
            self.packets_dropped_no_handler += 1
            return
        handler.on_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"

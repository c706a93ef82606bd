"""Per-host DCCP endpoint: demultiplexing, listeners, socket census."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.packets.packet import Packet
from repro.packets.dccp import DccpHeader, dccp_packet_type, make_dccp_header
from repro.dccpstack.connection import DccpConnection
from repro.dccpstack.variants import DccpVariant

AppFactory = Callable[[DccpConnection], object]


class DccpEndpoint:
    """The DCCP layer of one host."""

    EPHEMERAL_BASE = 42000

    def __init__(self, host: Host, variant: DccpVariant, iss_space: int = 1 << 48):
        self.host = host
        self.sim: Simulator = host.sim
        self.variant = variant
        self.address = host.address
        #: initial-sequence-number space; scaled down by the executor in
        #: lockstep with test duration (see the TCP endpoint's note)
        self.iss_space = iss_space
        self.connections: Dict[Tuple[str, int, int], DccpConnection] = {}
        self.closed_connections: List[DccpConnection] = []
        self._listeners: Dict[int, AppFactory] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.packets_received = 0
        self.resets_sent_closed_port = 0
        host.register_protocol("dccp", self)

    # ------------------------------------------------------------------
    def listen(self, port: int, app_factory: AppFactory) -> None:
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = app_factory

    def stop_listening(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_addr: str,
        remote_port: int,
        app: object = None,
        local_port: Optional[int] = None,
    ) -> DccpConnection:
        if local_port is None:
            local_port = self._next_ephemeral
            self._next_ephemeral += 1
        conn = DccpConnection(self, local_port, remote_addr, remote_port, self.variant, app)
        key = conn.key
        if key in self.connections:
            raise ValueError(f"connection {key} already exists")
        self.connections[key] = conn
        conn.open_active()
        return conn

    def next_iss(self) -> int:
        return self.sim.rng.randrange(self.iss_space)

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        header: DccpHeader = packet.header  # type: ignore[assignment]
        key = (packet.src, header.dport, header.sport)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_packet(packet)
            return
        ptype = dccp_packet_type(header)
        if ptype == "REQUEST" and header.dport in self._listeners:
            conn = DccpConnection(self, header.dport, packet.src, header.sport, self.variant)
            conn.app = self._listeners[header.dport](conn)
            self.connections[key] = conn
            conn.open_passive(packet)
            return
        if ptype != "RESET":
            self._send_closed_port_reset(packet, header)

    def _send_closed_port_reset(self, packet: Packet, header: DccpHeader) -> None:
        self.resets_sent_closed_port += 1
        reply = make_dccp_header(
            "RESET",
            sport=header.dport,
            dport=header.sport,
            seq=0,
            ack=header.seq,
        )
        self.host.send(Packet(self.address, packet.src, "dccp", reply, 0, sent_at=self.sim.now))

    # ------------------------------------------------------------------
    def connection_closed(self, conn: DccpConnection) -> None:
        self.connections.pop(conn.key, None)
        self.closed_connections.append(conn)

    def census(self) -> Counter:
        """netstat analog: live sockets by state."""
        counts: Counter = Counter()
        for conn in self.connections.values():
            counts[conn.state] += 1
        return counts

    def lingering_sockets(self) -> List[DccpConnection]:
        return [
            conn
            for conn in self.connections.values()
            if conn.state not in ("CLOSED", "TIMEWAIT")
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DccpEndpoint {self.address} {self.variant.name} conns={len(self.connections)}>"

"""Per-host TCP endpoint: demultiplexing, listeners, and the socket table.

Equivalent to the kernel's TCP layer on one of the paper's virtual machines.
The ``census`` method is the analog of the paper's ``netstat`` query that the
executor runs on the server after each test to detect resource-exhaustion
attacks.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.packets.packet import Packet
from repro.packets.tcp import ACK, RST, SYN, TcpHeader
from repro.tcpstack.connection import TcpConnection
from repro.tcpstack.variants import TcpVariant

AppFactory = Callable[[TcpConnection], object]


class TcpEndpoint:
    """The TCP layer of one host."""

    EPHEMERAL_BASE = 40000

    def __init__(
        self,
        host: Host,
        variant: TcpVariant,
        iss_space: int = 1 << 32,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.variant = variant
        self.address = host.address
        #: size of the initial-sequence-number space.  The SNAKE executor
        #: scales this down together with test duration and bandwidth so that
        #: sequence-space sweep attacks (hitseqwindow) have the same relative
        #: economics as in the paper's 1-minute, 100 Mbit testbed.
        self.iss_space = iss_space
        self.connections: Dict[Tuple[str, int, int], TcpConnection] = {}
        self.closed_connections: List[TcpConnection] = []
        self._listeners: Dict[int, AppFactory] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.packets_received = 0
        self.resets_sent_closed_port = 0
        host.register_protocol("tcp", self)

    # ------------------------------------------------------------------
    # application-facing API
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
    ) -> TcpConnection:
        if local_port is None:
            local_port = self._allocate_port()
        conn = TcpConnection(self, local_port, remote_addr, remote_port, self.variant, app)
        key = conn.key
        if key in self.connections:
            raise ValueError(f"connection {key} already exists")
        self.connections[key] = conn
        conn.open_active()
        return conn

    def _allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def next_iss(self) -> int:
        return self.sim.rng.randrange(self.iss_space)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        header: TcpHeader = packet.header  # type: ignore[assignment]
        key = (packet.src, header.dport, header.sport)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_packet(packet)
            return
        # no connection: maybe a listener accepts a SYN
        flags = header.flags
        if (flags & (SYN | ACK | RST)) == SYN and header.dport in self._listeners:
            conn = TcpConnection(self, header.dport, packet.src, header.sport, self.variant)
            conn.app = self._listeners[header.dport](conn)
            self.connections[key] = conn
            conn.open_passive(packet)
            return
        # closed port / stale segment: RST unless it was itself a RST
        if not flags & RST:
            self._send_closed_port_rst(packet, header)

    def _send_closed_port_rst(self, packet: Packet, header: TcpHeader) -> None:
        self.resets_sent_closed_port += 1
        reply = TcpHeader(
            sport=header.dport,
            dport=header.sport,
            seq=header.ack if header.flags & ACK else 0,
            ack=header.seq + packet.payload_len + 1,
            flags=RST | ACK,
        )
        self.host.send(Packet(self.address, packet.src, "tcp", reply, 0, sent_at=self.sim.now))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def connection_closed(self, conn: TcpConnection) -> None:
        self.connections.pop(conn.key, None)
        self.closed_connections.append(conn)

    def census(self) -> Counter:
        """netstat analog: count live sockets by state."""
        counts: Counter = Counter()
        for conn in self.connections.values():
            counts[conn.state] += 1
        return counts

    def lingering_sockets(self) -> List[TcpConnection]:
        """Connections still holding state (not CLOSED, not TIME_WAIT)."""
        return [
            conn
            for conn in self.connections.values()
            if conn.state not in ("CLOSED", "TIME_WAIT")
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpEndpoint {self.address} {self.variant.name} conns={len(self.connections)}>"

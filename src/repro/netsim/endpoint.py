"""The socket table a transport stack keeps on one host.

Listeners, ephemeral ports, demultiplexing, passive opens and the socket
census are the same for every stack.  A stack subclasses :class:`Endpoint`
with its constants and three protocol facts: its connection class, which
segment opens a connection, and what a closed port answers.

The ``census`` method is the analog of the paper's ``netstat`` query that the
executor runs on the server after each test to detect resource-exhaustion
attacks.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.packets.packet import Packet

AppFactory = Callable[[Any], object]


class Endpoint:
    """The transport layer of one host.

    Subclasses set the constants below and :attr:`connection_class`, and
    implement two static hooks that run only for segments no connection
    owns: ``opens_connection(header) -> bool`` (does a listening port accept
    it?) and ``closed_port_reply(packet) -> Optional[Header]`` (the answer
    to it, or None to stay silent).
    """

    #: demux key the host delivers to this endpoint
    PROTOCOL: str
    #: first local port an active open takes
    EPHEMERAL_BASE: int
    #: the state a closed connection waits out without holding resources
    RELEASED: str
    #: the stack's connection class, built as ``(endpoint, local_port,
    #: remote_addr, remote_port, variant[, app])``
    connection_class: type

    def __init__(self, host: Host, variant: Any, iss_space: int):
        self.host = host
        self.sim: Simulator = host.sim
        self.variant = variant
        self.address = host.address
        #: size of the initial-sequence-number space.  The SNAKE executor
        #: scales this down together with test duration and bandwidth so that
        #: sequence-space sweep attacks (hitseqwindow) have the same relative
        #: economics as in the paper's 1-minute, 100 Mbit testbed.
        self.iss_space = iss_space
        self.connections: Dict[Tuple[str, int, int], Any] = {}
        self.closed_connections: List[Any] = []
        self._listeners: Dict[int, AppFactory] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.packets_received = 0
        self.resets_sent_closed_port = 0
        host.register_protocol(self.PROTOCOL, self)

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
    ) -> Any:
        if local_port is None:
            local_port = self._next_ephemeral
            self._next_ephemeral += 1
        conn = self.connection_class(self, local_port, remote_addr, remote_port, self.variant, app)
        key = conn.key
        if key in self.connections:
            raise ValueError(f"connection {key} already exists")
        self.connections[key] = conn
        conn.open_active()
        return conn

    def next_iss(self) -> int:
        return self.sim.rng.randrange(self.iss_space)

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        header = packet.header
        key = (packet.src, header.dport, header.sport)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_packet(packet)
            return
        # no connection: maybe a listener accepts the segment
        port = header.dport
        if port in self._listeners and self.opens_connection(header):
            conn = self.connection_class(self, port, packet.src, header.sport, self.variant)
            conn.app = self._listeners[port](conn)
            self.connections[key] = conn
            conn.open_passive(packet)
            return
        # closed port / stale segment
        reply = self.closed_port_reply(packet)
        if reply is not None:
            self.resets_sent_closed_port += 1
            self.host.send(
                Packet(self.address, packet.src, self.PROTOCOL, reply, 0, sent_at=self.sim.now)
            )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def connection_closed(self, conn: Any) -> None:
        self.connections.pop(conn.key, None)
        self.closed_connections.append(conn)

    def census(self) -> Counter:
        """netstat analog: count live sockets by state."""
        counts: Counter = Counter()
        for conn in self.connections.values():
            counts[conn.state] += 1
        return counts

    def lingering_sockets(self) -> List[Any]:
        """Connections still holding state (neither CLOSED nor released)."""
        done = ("CLOSED", self.RELEASED)
        return [conn for conn in self.connections.values() if conn.state not in done]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.address} conns={len(self.connections)}>"

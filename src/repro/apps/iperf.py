"""iperf-like workload over the DCCP stack.

The paper measures DCCP "based on server goodput, or actual data received"
with iperf, with the client sending.  :class:`IperfSender` keeps the socket
send queue topped up until a configured stop time, then closes;
:class:`IperfReceiver` counts delivered bytes at the server.
"""

from __future__ import annotations

from typing import Optional

from repro.dccpstack.connection import DccpConnection
from repro.dccpstack.endpoint import DccpEndpoint

DEFAULT_QUEUE_PACKETS = 40


class IperfReceiver:
    """Server side: counts goodput."""

    def __init__(self, conn: DccpConnection):
        self.conn = conn
        self.bytes_received = 0
        self.packets_received = 0

    def on_data(self, conn: DccpConnection, nbytes: int) -> None:
        self.bytes_received += nbytes
        self.packets_received += 1

    def goodput_bps(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.bytes_received * 8.0 / duration


class IperfServer:
    """Listens and attaches a receiver to every accepted connection."""

    def __init__(self, endpoint: DccpEndpoint, port: int = 5001):
        self.endpoint = endpoint
        self.port = port
        self.receivers: list = []
        endpoint.listen(port, self._accept)

    def _accept(self, conn: DccpConnection) -> IperfReceiver:
        receiver = IperfReceiver(conn)
        self.receivers.append(receiver)
        return receiver

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_received for r in self.receivers)


class IperfSender:
    """Client side: keeps the send queue full until ``stop_at``, then closes."""

    def __init__(
        self,
        endpoint: DccpEndpoint,
        server_addr: str,
        server_port: int = 5001,
        stop_at: Optional[float] = None,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
    ):
        self.endpoint = endpoint
        self.stop_at = stop_at
        self.queue_packets = queue_packets
        self.connected = False
        self.reset = False
        self.reset_at: Optional[float] = None
        self.closed_reason: Optional[str] = None
        self.conn = endpoint.connect(server_addr, server_port, app=self)
        if stop_at is not None:
            endpoint.sim.schedule_at(stop_at, self._stop)

    # -- DCCP callbacks --------------------------------------------------
    def on_connected(self, conn: DccpConnection) -> None:
        self.connected = True
        self._refill(conn)

    def on_drained(self, conn: DccpConnection) -> None:
        self._refill(conn)

    def on_reset(self, conn: DccpConnection) -> None:
        self.reset = True
        if self.reset_at is None:
            self.reset_at = conn.sim.now

    def on_closed(self, conn: DccpConnection, reason: str) -> None:
        self.closed_reason = reason

    # ---------------------------------------------------------------------
    def _refill(self, conn: DccpConnection) -> None:
        if conn.close_requested or conn.state not in ("PARTOPEN", "OPEN"):
            return
        if self.stop_at is not None and conn.sim.now >= self.stop_at:
            return
        queue = conn.send_queue
        while len(queue) < self.queue_packets:
            conn.app_send(conn.mss)

    def _stop(self) -> None:
        if self.conn.state not in ("CLOSED", "TIMEWAIT"):
            self.conn.app_close()


def start_iperf_flow(
    server_endpoint: DccpEndpoint,
    client_endpoint: DccpEndpoint,
    port: int = 5001,
    stop_at: Optional[float] = None,
) -> IperfServer:
    """Wire an iperf server + sender pair; returns the server (goodput side)."""
    server = IperfServer(server_endpoint, port)
    IperfSender(client_endpoint, server_endpoint.address, port, stop_at=stop_at)
    return server

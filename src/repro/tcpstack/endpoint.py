"""Per-host TCP endpoint: the shared socket table with TCP's protocol facts.

Equivalent to the kernel's TCP layer on one of the paper's virtual machines.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.endpoint import Endpoint
from repro.netsim.node import Host
from repro.packets.packet import Packet
from repro.packets.tcp import ACK, RST, SYN, TcpHeader
from repro.tcpstack.connection import TcpConnection
from repro.tcpstack.variants import TcpVariant


class TcpEndpoint(Endpoint):
    """The TCP layer of one host."""

    PROTOCOL = "tcp"
    EPHEMERAL_BASE = 40000
    RELEASED = "TIME_WAIT"
    connection_class = TcpConnection

    def __init__(self, host: Host, variant: TcpVariant, iss_space: int = 1 << 32):
        super().__init__(host, variant, iss_space)

    @staticmethod
    def opens_connection(header: TcpHeader) -> bool:
        """A bare SYN: neither ACK nor RST set."""
        return (header.flags & (SYN | ACK | RST)) == SYN

    @staticmethod
    def closed_port_reply(packet: Packet) -> Optional[TcpHeader]:
        """RST|ACK, unless the segment was itself a RST."""
        header: TcpHeader = packet.header  # type: ignore[assignment]
        if header.flags & RST:
            return None
        return TcpHeader(
            sport=header.dport,
            dport=header.sport,
            seq=header.ack if header.flags & ACK else 0,
            ack=header.seq + packet.payload_len + 1,
            flags=RST | ACK,
        )

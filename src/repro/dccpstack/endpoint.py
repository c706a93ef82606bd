"""Per-host DCCP endpoint: the shared socket table with DCCP's protocol facts."""

from __future__ import annotations

from typing import Optional

from repro.netsim.endpoint import Endpoint
from repro.netsim.node import Host
from repro.packets.packet import Packet
from repro.packets.dccp import DccpHeader, dccp_packet_type, make_dccp_header
from repro.dccpstack.connection import DccpConnection
from repro.dccpstack.variants import DccpVariant


class DccpEndpoint(Endpoint):
    """The DCCP layer of one host."""

    PROTOCOL = "dccp"
    EPHEMERAL_BASE = 42000
    RELEASED = "TIMEWAIT"
    connection_class = DccpConnection

    def __init__(self, host: Host, variant: DccpVariant, iss_space: int = 1 << 48):
        super().__init__(host, variant, iss_space)

    @staticmethod
    def opens_connection(header: DccpHeader) -> bool:
        """A REQUEST."""
        return dccp_packet_type(header) == "REQUEST"

    @staticmethod
    def closed_port_reply(packet: Packet) -> Optional[DccpHeader]:
        """RESET, unless the segment was itself a RESET."""
        header: DccpHeader = packet.header  # type: ignore[assignment]
        if dccp_packet_type(header) == "RESET":
            return None
        return make_dccp_header("RESET", sport=header.dport, dport=header.sport, seq=0,
                                ack=header.seq)

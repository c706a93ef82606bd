"""Host socket tables: demultiplexing, listeners, port allocation, census.

Every case runs against both stacks: the ``Test*`` classes drive TCP and
their ``TestDccp*`` twins drive DCCP through the same steps.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.packets.dccp import dccp_packet_type, make_dccp_header
from repro.packets.header import Header
from repro.packets.packet import Packet
from repro.packets.tcp import TcpHeader, tcp_packet_type

from tests.harness import DccpPair, RecordingApp, TcpPair


def _tcp_stray(reset: bool) -> TcpHeader:
    header = TcpHeader(sport=1234, dport=4321, seq=99)
    if reset:
        header.flags_set("rst")
    else:
        header.flags_set("ack")
        header.ack = 77
    return header


def _dccp_stray(reset: bool) -> Header:
    return make_dccp_header("RESET" if reset else "ACK", sport=1234, dport=4321, seq=99, ack=77)


@dataclass(frozen=True)
class Proto:
    """What the socket-table cases need to know about one stack."""

    name: str
    pair: Callable[[], object]
    port: int
    ephemeral_base: int
    iss_space: int
    #: the state a closed connection lingers in without holding resources
    released: str
    #: a segment for port 4321 from port 1234 (seq 99, ack 77), or a reset
    stray: Callable[[bool], Header]
    packet_type: Callable[[Header], str]
    #: the closed-port reply to the non-reset stray: (type, seq, ack)
    reply: Tuple[str, int, int]


TCP = Proto("tcp", TcpPair, 80, 40000, 1 << 32, "TIME_WAIT", _tcp_stray, tcp_packet_type,
            ("RST+ACK", 77, 100))
DCCP = Proto("dccp", DccpPair, 5001, 42000, 1 << 48, "TIMEWAIT", _dccp_stray,
             dccp_packet_type, ("RESET", 0, 99))


def _deliver_stray(proto: Proto, reset: bool):
    """Hand the server a segment no socket owns; return the pair and every
    packet the server put on the wire in answer."""
    pair = proto.pair()
    sent = []

    def record(packet, pipe):
        sent.append(packet)
        pipe.enqueue(packet)

    pair.link.ba.tap = record
    pair.server.on_packet(Packet("client", "server", proto.name, proto.stray(reset), 0))
    pair.run(until=1.0)
    return pair, sent


class TestListeners:
    proto = TCP

    def test_listen_duplicate_port_rejected(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        with pytest.raises(ValueError):
            pair.server.listen(self.proto.port, lambda conn: RecordingApp())

    def test_stop_listening(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        pair.server.stop_listening(self.proto.port)
        app = RecordingApp()
        conn = pair.client.connect("server", self.proto.port, app)
        pair.run(until=1.0)
        assert conn.state == "CLOSED"
        assert app.reset
        assert pair.server.connections == {}

    def test_app_factory_called_per_connection(self):
        pair = self.proto.pair()
        apps = []

        def factory(conn):
            app = RecordingApp()
            apps.append(app)
            return app

        pair.server.listen(self.proto.port, factory)
        pair.client.connect("server", self.proto.port, RecordingApp())
        pair.client.connect("server", self.proto.port, RecordingApp())
        pair.run(until=1.0)
        assert len(apps) == 2
        assert all(app.connected for app in apps)
        assert [conn.app for conn in pair.server.connections.values()] == apps


class TestDccpListeners(TestListeners):
    proto = DCCP


class TestDemux:
    proto = TCP

    def test_ephemeral_ports_distinct(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        a = pair.client.connect("server", self.proto.port)
        b = pair.client.connect("server", self.proto.port)
        assert (a.local_port, b.local_port) == (
            self.proto.ephemeral_base, self.proto.ephemeral_base + 1)

    def test_duplicate_connection_key_rejected(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        pair.client.connect("server", self.proto.port, local_port=5555)
        with pytest.raises(ValueError):
            pair.client.connect("server", self.proto.port, local_port=5555)

    def test_stray_segment_gets_rst(self):
        pair, sent = _deliver_stray(self.proto, reset=False)
        assert pair.server.resets_sent_closed_port == 1
        assert len(sent) == 1
        reply = sent[0].header
        assert (reply.sport, reply.dport) == (4321, 1234)
        assert (self.proto.packet_type(reply), reply.seq, reply.ack) == self.proto.reply
        # the client owns no socket for it either, and never answers a reset
        assert pair.client.packets_received == 1
        assert pair.client.resets_sent_closed_port == 0

    def test_stray_rst_not_answered(self):
        pair, sent = _deliver_stray(self.proto, reset=True)
        assert pair.server.packets_received == 1
        assert pair.server.resets_sent_closed_port == 0
        assert sent == []


class TestDccpDemux(TestDemux):
    proto = DCCP


class TestCensus:
    proto = TCP

    def test_counts_states(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        conn = pair.client.connect("server", self.proto.port)
        conn.app_send(10_000)
        pair.run(until=1.0)
        server_conn = next(iter(pair.server.connections.values()))
        assert pair.server.census() == {server_conn.state: 1}
        assert pair.client.census() == {conn.state: 1}
        assert conn.state == server_conn.state
        assert conn.state in ("ESTABLISHED", "OPEN")

    def test_lingering_excludes_time_wait(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        conn = pair.client.connect("server", self.proto.port)
        pair.run(until=1.0)
        conn.app_close()
        pair.run(until=1.5)
        for server_conn in list(pair.server.connections.values()):
            server_conn.app_close()
        pair.run(until=1.7)  # client now in TIME_WAIT / TIMEWAIT
        assert pair.client.census() == {self.proto.released: 1}
        assert pair.client.lingering_sockets() == []

    def test_closed_connections_archived(self):
        pair = self.proto.pair()
        pair.server.listen(self.proto.port, lambda conn: RecordingApp())
        conn = pair.client.connect("server", self.proto.port)
        pair.run(until=1.0)
        conn.app_abort()
        pair.run(until=2.0)
        assert conn in pair.client.closed_connections
        assert pair.client.connections == {}
        assert pair.client.lingering_sockets() == []

    def test_iss_space_respected(self):
        pair = self.proto.pair()
        assert pair.client.iss_space == self.proto.iss_space
        pair.client.iss_space = 1024
        for _ in range(20):
            assert pair.client.next_iss() < 1024


class TestDccpCensus(TestCensus):
    proto = DCCP

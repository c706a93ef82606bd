"""Unit tests for links: serialization, propagation, queueing, drops."""

import pytest

from repro.netsim.link import Link, Pipe
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.packets.packet import IP_HEADER_BYTES, Packet
from repro.packets.tcp import TcpHeader


class Sink:
    """Minimal receive endpoint recording arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, pipe):
        self.arrivals.append((self.sim.now, packet))


def make_packet(payload=1000, src="a", dst="b"):
    return Packet(src, dst, "tcp", TcpHeader(), payload)


class TestPipeTiming:
    def test_single_packet_latency(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=8_000_000, delay_s=0.01)
        sink = Sink(sim)
        pipe.dst = sink
        packet = make_packet(payload=1000 - IP_HEADER_BYTES - TcpHeader().length_bytes)
        assert packet.size_bytes == 1000
        pipe.transmit(packet)
        sim.run()
        # 1000 bytes at 8 Mbps = 1 ms serialization + 10 ms propagation
        assert sink.arrivals[0][0] == pytest.approx(0.011)

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=8_000_000, delay_s=0.0)
        sink = Sink(sim)
        pipe.dst = sink
        size = 1000 - IP_HEADER_BYTES - TcpHeader().length_bytes
        pipe.transmit(make_packet(size))
        pipe.transmit(make_packet(size))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times[0] == pytest.approx(0.001)
        assert times[1] == pytest.approx(0.002)

    def test_pipelining_propagation_overlaps(self):
        """Propagation of packet 1 overlaps serialization of packet 2."""
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=8_000_000, delay_s=0.05)
        sink = Sink(sim)
        pipe.dst = sink
        size = 1000 - IP_HEADER_BYTES - TcpHeader().length_bytes
        for _ in range(3):
            pipe.transmit(make_packet(size))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([0.051, 0.052, 0.053])


class TestQueueing:
    def test_drop_tail_on_overflow(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=1_000_000, delay_s=0.0, queue_packets=2)
        sink = Sink(sim)
        pipe.dst = sink
        for _ in range(10):
            pipe.transmit(make_packet())
        sim.run()
        # 1 in flight after first pop + 2 queued survive each round; total
        # delivered is bounded by queue capacity + in-service
        assert pipe.stats.packets_dropped > 0
        assert len(sink.arrivals) + pipe.stats.packets_dropped == 10

    def test_queue_peak_tracked(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=1_000_000, delay_s=0.0, queue_packets=50)
        pipe.dst = Sink(sim)
        for _ in range(5):
            pipe.transmit(make_packet())
        assert pipe.stats.queue_peak >= 1

    def test_stats_bytes_counted(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=1_000_000, delay_s=0.0)
        pipe.dst = Sink(sim)
        packet = make_packet(500)
        pipe.transmit(packet)
        sim.run()
        assert pipe.stats.packets_sent == 1
        assert pipe.stats.bytes_sent == packet.size_bytes


class TestDelivery:
    def test_arrival_calls_the_receiver_with_the_delivering_pipe(self):
        sim = Simulator()
        pipe = Pipe(sim, bandwidth_bps=1_000_000, delay_s=0.01)
        calls = []

        class Receiver:
            def receive(self, packet, via):
                calls.append((sim.now, packet, via))

        pipe.dst = Receiver()
        packet = make_packet(500)
        pipe.transmit(packet)
        sim.run()
        assert calls == [(pytest.approx(packet.size_bytes * 8.0 / 1_000_000 + 0.01), packet, pipe)]
        # one event serializes the packet, one delivers it
        assert sim.events_processed == 2

    def test_pipe_without_receiver_spends_the_same_events(self):
        def events(with_sink):
            sim = Simulator()
            pipe = Pipe(sim, bandwidth_bps=1_000_000, delay_s=0.01, queue_packets=3)
            if with_sink:
                pipe.dst = Sink(sim)
            for _ in range(5):
                pipe.transmit(make_packet())
            sim.run()
            return sim.events_processed, pipe.stats.packets_sent, pipe.stats.packets_dropped

        assert events(False) == events(True) == (8, 4, 1)


class TestValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Pipe(Simulator(), bandwidth_bps=0, delay_s=0.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Pipe(Simulator(), bandwidth_bps=1.0, delay_s=-1.0)


class TestLink:
    def _hosts(self, sim):
        return Host(sim, "a"), Host(sim, "b")

    def test_full_duplex_construction(self):
        sim = Simulator()
        a, b = self._hosts(sim)
        link = Link(sim, a, b, 1_000_000, 0.001)
        assert link.pipe_from(a) is link.ab
        assert link.pipe_from(b) is link.ba
        assert link.pipe_to(a) is link.ba
        assert link.pipe_to(b) is link.ab

    def test_other_endpoint(self):
        sim = Simulator()
        a, b = self._hosts(sim)
        link = Link(sim, a, b, 1_000_000, 0.001)
        assert link.other(a) is b
        assert link.other(b) is a

    def test_foreign_host_rejected(self):
        sim = Simulator()
        a, b = self._hosts(sim)
        c = Host(sim, "c")
        link = Link(sim, a, b, 1_000_000, 0.001)
        with pytest.raises(ValueError):
            link.pipe_from(c)
        with pytest.raises(ValueError):
            link.other(c)

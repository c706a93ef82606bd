"""Hosts, routing, and the dumbbell topology."""

import pytest

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Dumbbell, DumbbellConfig
from repro.packets.packet import Packet
from repro.packets.tcp import TcpHeader


class Collector:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def tcp_packet(src, dst, payload=100):
    return Packet(src, dst, "tcp", TcpHeader(), payload)


class TestHost:
    def test_delivery_to_registered_protocol(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        Link(sim, a, b, 1_000_000, 0.001)
        a.set_default_route(a.links[0])
        collector = Collector()
        b.register_protocol("tcp", collector)
        a.send(tcp_packet("a", "b"))
        sim.run()
        assert len(collector.packets) == 1

    def test_unknown_protocol_dropped(self):
        sim = Simulator()
        a, b = Host(sim, "a"), Host(sim, "b")
        Link(sim, a, b, 1_000_000, 0.001)
        a.set_default_route(a.links[0])
        a.send(tcp_packet("a", "b"))
        sim.run()
        assert b.packets_dropped_no_handler == 1

    def test_no_route_dropped(self):
        sim = Simulator()
        a = Host(sim, "a")
        a.send(tcp_packet("a", "nowhere"))
        assert a.packets_dropped_no_route == 1

    def test_forwarding_through_router(self):
        sim = Simulator()
        a, r, b = Host(sim, "a"), Host(sim, "r"), Host(sim, "b")
        link_ar = Link(sim, a, r, 1_000_000, 0.001)
        link_rb = Link(sim, r, b, 1_000_000, 0.001)
        a.set_default_route(link_ar)
        r.add_route("b", link_rb)
        collector = Collector()
        b.register_protocol("tcp", collector)
        a.send(tcp_packet("a", "b"))
        sim.run()
        assert len(collector.packets) == 1
        assert r.packets_forwarded == 1

    def test_router_without_a_route_counts_the_forward_and_the_drop(self):
        sim = Simulator()
        a, r = Host(sim, "a"), Host(sim, "r")
        a.set_default_route(Link(sim, a, r, 1_000_000, 0.001))
        a.send(tcp_packet("a", "nowhere"))
        sim.run()
        assert r.packets_received == 1
        assert r.packets_forwarded == 1
        assert r.packets_dropped_no_route == 1
        assert r.packets_dropped_no_handler == 0

    def test_route_must_use_attached_link(self):
        sim = Simulator()
        a, b, c = Host(sim, "a"), Host(sim, "b"), Host(sim, "c")
        link_bc = Link(sim, b, c, 1_000_000, 0.001)
        with pytest.raises(ValueError):
            a.add_route("c", link_bc)
        with pytest.raises(ValueError):
            a.set_default_route(link_bc)


class TestDumbbell:
    def test_all_pairs_reachable(self):
        sim = Simulator()
        dumbbell = Dumbbell(sim)
        collectors = {}
        for name, host in dumbbell.hosts.items():
            collectors[name] = Collector()
            host.register_protocol("tcp", collectors[name])
        names = list(dumbbell.hosts)
        for src in names:
            for dst in names:
                if src != dst:
                    dumbbell.host(src).send(tcp_packet(src, dst))
        sim.run()
        for dst in names:
            assert len(collectors[dst].packets) == len(names) - 1, dst

    def test_cross_traffic_uses_bottleneck(self):
        sim = Simulator()
        dumbbell = Dumbbell(sim)
        collector = Collector()
        dumbbell.server1.register_protocol("tcp", collector)
        dumbbell.client1.send(tcp_packet("client1", "server1"))
        sim.run()
        assert dumbbell.bottleneck.ab.stats.packets_sent == 1

    def test_same_side_traffic_avoids_bottleneck(self):
        sim = Simulator()
        dumbbell = Dumbbell(sim)
        collector = Collector()
        dumbbell.client2.register_protocol("tcp", collector)
        dumbbell.client1.send(tcp_packet("client1", "client2"))
        sim.run()
        assert len(collector.packets) == 1
        assert dumbbell.bottleneck.ab.stats.packets_sent == 0
        assert dumbbell.bottleneck.ba.stats.packets_sent == 0

    def test_rtt_computation(self):
        config = DumbbellConfig(access_delay_s=0.001, bottleneck_delay_s=0.018)
        dumbbell = Dumbbell(Simulator(), config)
        assert dumbbell.rtt_s == pytest.approx(0.04)

    def test_custom_config_applies(self):
        config = DumbbellConfig(bottleneck_bandwidth_bps=1_000_000.0)
        dumbbell = Dumbbell(Simulator(), config)
        assert dumbbell.bottleneck.ab.bandwidth_bps == 1_000_000.0

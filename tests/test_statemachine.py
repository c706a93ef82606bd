"""Dot parsing, state-machine model, and runtime tracking."""

import pytest

from repro.packets.tcp import TcpHeader, tcp_packet_type
from repro.packets.packet import Packet
from repro.statemachine.dot import DotParseError, parse_dot
from repro.statemachine.machine import RCV, SND, StateMachine, TriggerEvent
from repro.statemachine.specs import dccp_state_machine, load_spec, tcp_state_machine
from repro.core.executor import Executor, TestbedConfig
from repro.statemachine import tracker as tracker_module
from repro.statemachine.tracker import EndpointTracker, StateStats, StateTracker


SIMPLE_DOT = """
digraph demo {
    client_initial = A;
    server_initial = B;
    A; B; C;
    A -> C [label="snd PING / snd PONG"];
    B -> C [label="rcv PING"];
    C -> A [label="rcv BYE|QUIT"];
    C -> B [label="timeout: something"];
}
"""


class TestDotParser:
    def test_graph_name_and_attrs(self):
        graph = parse_dot(SIMPLE_DOT)
        assert graph.name == "demo"
        assert graph.attrs["client_initial"] == "A"
        assert graph.attrs["server_initial"] == "B"

    def test_nodes_and_edges(self):
        graph = parse_dot(SIMPLE_DOT)
        assert set(graph.nodes) == {"A", "B", "C"}
        assert len(graph.edges) == 4

    def test_edge_labels(self):
        graph = parse_dot(SIMPLE_DOT)
        labels = {(e.src, e.dst): e.label for e in graph.edges}
        assert labels[("A", "C")] == "snd PING / snd PONG"

    def test_comments(self):
        graph = parse_dot("digraph d { // comment\n A; # other\n a_x = 1; }")
        assert "A" in graph.nodes
        assert graph.attrs["a_x"] == "1"

    def test_quoted_labels_with_spaces(self):
        graph = parse_dot('digraph d { A -> B [label="rcv X / snd Y; Z"]; }')
        assert graph.edges[0].label == "rcv X / snd Y; Z"

    def test_rejects_non_digraph(self):
        with pytest.raises(DotParseError):
            parse_dot("graph g { }")

    def test_rejects_garbage_statement(self):
        with pytest.raises(DotParseError):
            parse_dot("digraph d { A -> ; }")


class TestStateMachine:
    def test_initial_states(self):
        machine = StateMachine.from_dot(SIMPLE_DOT)
        assert machine.initial_state("client") == "A"
        assert machine.initial_state("server") == "B"
        with pytest.raises(ValueError):
            machine.initial_state("observer")

    def test_snd_trigger(self):
        machine = StateMachine.from_dot(SIMPLE_DOT)
        assert machine.next_state("A", TriggerEvent(SND, "PING")) == "C"
        assert machine.next_state("A", TriggerEvent(RCV, "PING")) is None

    def test_alternation(self):
        machine = StateMachine.from_dot(SIMPLE_DOT)
        assert machine.next_state("C", TriggerEvent(RCV, "BYE")) == "A"
        assert machine.next_state("C", TriggerEvent(RCV, "QUIT")) == "A"
        assert machine.next_state("C", TriggerEvent(RCV, "OTHER")) is None

    def test_non_packet_labels_never_fire(self):
        machine = StateMachine.from_dot(SIMPLE_DOT)
        assert machine.next_state("C", TriggerEvent(SND, "timeout:")) is None

    def test_wildcard_loses_to_exact(self):
        machine = StateMachine.from_dot(
            """
            digraph d {
                client_initial = S; server_initial = S;
                S; GOOD; BAD;
                S -> GOOD [label="rcv OK"];
                S -> BAD [label="rcv *"];
            }
            """
        )
        assert machine.next_state("S", TriggerEvent(RCV, "OK")) == "GOOD"
        assert machine.next_state("S", TriggerEvent(RCV, "ANYTHING")) == "BAD"

    def test_missing_initial_attr_rejected(self):
        with pytest.raises(ValueError):
            StateMachine.from_dot("digraph d { A; }")

    def test_reachability(self):
        machine = StateMachine.from_dot(SIMPLE_DOT)
        assert machine.reachable_states() == {"A", "B", "C"}


class TestBundledSpecs:
    def test_each_spec_is_parsed_once(self):
        assert tcp_state_machine() is load_spec("tcp")
        assert dccp_state_machine() is dccp_state_machine()
        # shared by every caller, so nothing can edit its edges
        assert isinstance(tcp_state_machine().transitions, tuple)

    def test_tcp_has_eleven_states(self):
        machine = tcp_state_machine()
        assert len(machine.states) == 11
        assert machine.reachable_states() == frozenset(machine.states)

    def test_tcp_three_way_handshake_path(self):
        machine = tcp_state_machine()
        assert machine.next_state("CLOSED", TriggerEvent(SND, "SYN")) == "SYN_SENT"
        assert machine.next_state("LISTEN", TriggerEvent(RCV, "SYN")) == "SYN_RCVD"
        assert machine.next_state("SYN_SENT", TriggerEvent(RCV, "SYN+ACK")) == "ESTABLISHED"
        assert machine.next_state("SYN_RCVD", TriggerEvent(RCV, "ACK")) == "ESTABLISHED"

    def test_tcp_teardown_path(self):
        machine = tcp_state_machine()
        assert machine.next_state("ESTABLISHED", TriggerEvent(SND, "FIN+ACK")) == "FIN_WAIT_1"
        assert machine.next_state("FIN_WAIT_1", TriggerEvent(RCV, "ACK")) == "FIN_WAIT_2"
        assert machine.next_state("FIN_WAIT_2", TriggerEvent(RCV, "FIN+ACK")) == "TIME_WAIT"
        assert machine.next_state("ESTABLISHED", TriggerEvent(RCV, "FIN+ACK")) == "CLOSE_WAIT"
        assert machine.next_state("CLOSE_WAIT", TriggerEvent(SND, "FIN+ACK")) == "LAST_ACK"
        assert machine.next_state("LAST_ACK", TriggerEvent(RCV, "ACK")) == "CLOSED"

    def test_tcp_reset_edges(self):
        machine = tcp_state_machine()
        for state in ("SYN_SENT", "SYN_RCVD", "ESTABLISHED", "FIN_WAIT_1", "CLOSE_WAIT"):
            assert machine.next_state(state, TriggerEvent(RCV, "RST")) == "CLOSED", state

    def test_dccp_request_wildcard_reset(self):
        machine = dccp_state_machine()
        assert machine.next_state("REQUEST", TriggerEvent(RCV, "RESPONSE")) == "PARTOPEN"
        assert machine.next_state("REQUEST", TriggerEvent(RCV, "DATA")) == "CLOSED"
        assert machine.next_state("REQUEST", TriggerEvent(RCV, "SYNC")) == "CLOSED"

    def test_dccp_handshake(self):
        machine = dccp_state_machine()
        assert machine.next_state("CLOSED", TriggerEvent(SND, "REQUEST")) == "REQUEST"
        assert machine.next_state("LISTEN", TriggerEvent(RCV, "REQUEST")) == "RESPOND"
        assert machine.next_state("RESPOND", TriggerEvent(RCV, "ACK")) == "OPEN"
        assert machine.next_state("PARTOPEN", TriggerEvent(RCV, "DATAACK")) == "OPEN"


def _mk(src, dst, *flags, sport=1000, dport=80):
    header = TcpHeader(sport=sport, dport=dport)
    for flag in flags:
        header.set_flag("flags", flag)
    return Packet(src, dst, "tcp", header, 0)


class TestTracker:
    def test_handshake_tracking(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        tracker.observe(_mk("c", "s", "syn"), 0.0)
        assert tracker.client.state == "SYN_SENT"
        assert tracker.server.state == "SYN_RCVD"
        tracker.observe(_mk("s", "c", "syn", "ack"), 0.01)
        assert tracker.client.state == "ESTABLISHED"
        tracker.observe(_mk("c", "s", "ack"), 0.02)
        assert tracker.server.state == "ESTABLISHED"

    def test_observed_pairs_record_sender_state(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        tracker.observe(_mk("c", "s", "syn"), 0.0)
        assert ("CLOSED", "SYN") in tracker.observed_pairs

    def test_foreign_packets_ignored(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        state, ptype = tracker.observe(_mk("x", "y", "syn"), 0.0)
        assert state is None
        assert tracker.packets_observed == 0

    def test_per_state_statistics(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        tracker.observe(_mk("c", "s", "syn"), 0.0)
        tracker.observe(_mk("s", "c", "syn", "ack"), 1.0)
        tracker.observe(_mk("c", "s", "ack"), 2.0)
        tracker.finish(10.0)
        closed = tracker.client.stats["CLOSED"]
        assert closed.packets_sent["SYN"] == 1
        assert closed.visits == 1
        established = tracker.client.stats["ESTABLISHED"]
        assert established.time_in_state == pytest.approx(9.0)

    def test_transition_listeners_fire(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        events = []
        tracker.transition_listeners.append(lambda role, state: events.append((role, state)))
        tracker.observe(_mk("c", "s", "syn"), 0.0)
        assert ("client", "SYN_SENT") in events
        assert ("server", "SYN_RCVD") in events

    def test_transitions_recorded(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        tracker.observe(_mk("c", "s", "syn"), 0.5)
        assert tracker.client.transitions_taken[0] == (0.5, "CLOSED", "snd SYN", "SYN_SENT")

    def test_state_of(self):
        tracker = StateTracker(tcp_state_machine(), "c", "s", tcp_packet_type)
        assert tracker.state_of("c") == "CLOSED"
        assert tracker.state_of("s") == "LISTEN"
        assert tracker.state_of("other") is None

    def test_stats_are_built_once_per_reported_state(self, monkeypatch):
        built = []

        class CountingStats(StateStats):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(tracker_module, "StateStats", CountingStats)
        config = TestbedConfig()
        world = Executor(config).build_world(None)
        world.sim.run(until=config.duration)
        world.tracker.finish(world.sim.now)
        reported = [
            stats for per_state in world.tracker.summary().values() for stats in per_state.values()
        ]
        assert world.tracker.packets_observed > len(reported) > 2
        assert sorted(map(id, built)) == sorted(map(id, reported))

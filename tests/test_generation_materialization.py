"""Every generated strategy must be executable.

The controller ships strategies to executors as plain data; this suite
guarantees the vocabulary stays closed: anything the generator can emit,
the proxy can materialize — no drift between the two ends of the pipeline.
"""

import pytest

from repro.core.generation import GenerationConfig, StrategyGenerator
from repro.core.strategy import KIND_HITSEQWINDOW, KIND_INJECT, KIND_PACKET
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.proxy.attacks import make_packet_action
from repro.proxy.combo import make_combo_action
from repro.proxy.injection import HitSeqWindowCampaign, InjectCampaign
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine

TCP_PAIRS = [("CLOSED", "SYN"), ("ESTABLISHED", "ACK"), ("ESTABLISHED", "PSH+ACK"),
             ("FIN_WAIT_2", "RST")]
DCCP_PAIRS = [("CLOSED", "REQUEST"), ("OPEN", "ACK"), ("OPEN", "DATAACK")]


def generators():
    return [
        ("tcp", StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine()), TCP_PAIRS),
        ("dccp", StrategyGenerator("dccp", DCCP_FORMAT, dccp_state_machine()), DCCP_PAIRS),
    ]


class TestMaterializability:
    @pytest.mark.parametrize("name,generator,pairs", generators(),
                             ids=["tcp", "dccp"])
    def test_every_generated_strategy_materializes(self, name, generator, pairs):
        for strategy in generator.generate(pairs):
            if strategy.kind == KIND_PACKET:
                action = make_packet_action(strategy.action, **strategy.params)
                assert action.describe()
            elif strategy.kind == KIND_INJECT:
                params = dict(strategy.params)
                params["trigger"] = tuple(params["trigger"])
                campaign = InjectCampaign(strategy.protocol, **params)
                assert campaign.describe()
            elif strategy.kind == KIND_HITSEQWINDOW:
                params = dict(strategy.params)
                params["trigger"] = tuple(params["trigger"])
                campaign = HitSeqWindowCampaign(strategy.protocol, **params)
                assert campaign.describe()
            else:  # pragma: no cover
                pytest.fail(f"unknown kind {strategy.kind}")

    @pytest.mark.parametrize("name,generator,pairs", generators(),
                             ids=["tcp", "dccp"])
    def test_combo_strategies_materialize(self, name, generator, pairs):
        for strategy in generator.combo_strategies(pairs):
            combo = make_combo_action(strategy.params["steps"])
            assert len(combo.steps) == 2

    def test_lie_fields_exist_in_format(self):
        for name, generator, pairs in generators():
            fields = {spec.name for spec in generator.header_format.fields}
            for strategy in generator.packet_strategies(pairs):
                if strategy.action == "lie":
                    assert strategy.params["field"] in fields

    def test_inject_types_craftable(self):
        from repro.proxy.craft import craft_packet
        for name, generator, pairs in generators():
            for ptype in generator.inject_types:
                packet = craft_packet(name, "a", "b", 1, 2, ptype)
                assert packet.proto == name

    def test_hsw_counts_cover_space(self):
        for name, generator, pairs in generators():
            for strategy in generator.hitseqwindow_strategies():
                params = strategy.params
                assert params["count"] * params["stride"] >= params["space"]


class TestDeterminism:
    def test_same_inputs_same_strategies(self):
        a = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine()).generate(TCP_PAIRS)
        b = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine()).generate(TCP_PAIRS)
        assert len(a) == len(b)
        for left, right in zip(a, b):
            assert left.kind == right.kind
            assert left.state == right.state
            assert left.packet_type == right.packet_type
            assert left.action == right.action
            assert left.params == right.params

    def test_pair_order_does_not_matter(self):
        forward = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
        backward = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
        a = forward.packet_strategies(TCP_PAIRS)
        b = backward.packet_strategies(list(reversed(TCP_PAIRS)))
        assert [(s.state, s.packet_type, s.action, tuple(sorted(s.params.items())))
                for s in a] == \
               [(s.state, s.packet_type, s.action, tuple(sorted(s.params.items())))
                for s in b]


class TestVariantAwareGeneration:
    def test_controller_uses_variant_receive_window(self):
        from repro.api import CampaignSpec
        from repro.core.controller import Controller
        from repro.core.executor import TestbedConfig

        win95 = Controller(CampaignSpec(testbed=TestbedConfig(variant="windows-95")))
        linux = Controller(CampaignSpec(testbed=TestbedConfig(variant="linux-3.13")))
        win95_strides = {s.params["stride"]
                         for s in win95.make_generator().hitseqwindow_strategies()}
        linux_strides = {s.params["stride"]
                         for s in linux.make_generator().hitseqwindow_strategies()}
        assert 65535 in win95_strides      # pre-RFC1323 window
        assert 262144 in linux_strides     # scaled window
        assert 262144 not in win95_strides

"""Sampled generation and positional ids.

``generate(pairs, k)`` must equal ``generate(pairs)[::k]`` while building
only the kept strategies, and a strategy's id is its position in the full
enumeration, so ids never depend on what the generator was asked before.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import generation
from repro.core.generation import DCCP_INJECT_TYPES, TCP_INJECT_TYPES, StrategyGenerator
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine
from tests.test_generation_digests import TCP_PAIRS


def _generator(protocol):
    if protocol == "tcp":
        return StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
    return StrategyGenerator("dccp", DCCP_FORMAT, dccp_state_machine())


def _pair_pool(protocol):
    if protocol == "tcp":
        return [(s, t) for s in tcp_state_machine().states for t in TCP_INJECT_TYPES]
    return [(s, t) for s in dccp_state_machine().states for t in DCCP_INJECT_TYPES]


def _identity(strategies):
    return [(s.strategy_id, s.canonical_form()) for s in strategies]


@st.composite
def _campaigns(draw):
    protocol = draw(st.sampled_from(["tcp", "dccp"]))
    pairs = draw(st.lists(st.sampled_from(_pair_pool(protocol)), max_size=5))
    return protocol, pairs


class TestSampledGeneration:
    @settings(max_examples=25, deadline=None)
    @given(campaign=_campaigns(), data=st.data())
    def test_sampled_equals_slice_of_full(self, campaign, data):
        protocol, pairs = campaign
        generator = _generator(protocol)
        full = generator.generate(pairs)
        assert generator.count(pairs) == len(full)
        k = data.draw(st.integers(1, len(full) + 1), label="sample_every")
        sampled = generator.generate(pairs, k)
        assert _identity(sampled) == _identity(full[::k])
        assert len({id(s.params) for s in sampled}) == len(sampled)

    def test_builds_exactly_the_kept_strategies(self, monkeypatch):
        generator = _generator("tcp")
        total = generator.count(TCP_PAIRS)
        built = []
        real = generation.Strategy

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(generation, "Strategy", counting)
        for k in (1, 2, 25, 360, total - 1, total, total + 1):
            built.clear()
            strategies = generator.generate(TCP_PAIRS, k)
            assert len(built) == len(strategies) == math.ceil(total / k), k

    def test_sample_every_below_one_is_refused(self):
        with pytest.raises(ValueError, match="sample_every"):
            _generator("tcp").generate(TCP_PAIRS, 0)


class TestPositionalIds:
    def test_repeated_generate_numbers_from_one(self):
        generator = _generator("tcp")
        first = generator.generate(TCP_PAIRS)
        second = generator.generate(TCP_PAIRS)
        assert first[0].strategy_id == 1
        assert _identity(first) == _identity(second)

    def test_family_call_does_not_shift_generate(self):
        fresh = _generator("tcp").generate(TCP_PAIRS)
        generator = _generator("tcp")
        generator.hitseqwindow_strategies()
        generator.packet_strategies(TCP_PAIRS)
        generator.combo_strategies(TCP_PAIRS)
        assert _identity(generator.generate(TCP_PAIRS)) == _identity(fresh)

    def test_families_are_slices_of_generate(self):
        generator = _generator("dccp")
        pairs = [("OPEN", "ACK"), ("CLOSED", "REQUEST")]
        full = generator.generate(pairs)
        packet = generator.packet_strategies(pairs)
        inject = generator.inject_strategies()
        hitseqwindow = generator.hitseqwindow_strategies()
        assert [s.canonical_form() for s in packet + inject + hitseqwindow] == \
            [s.canonical_form() for s in full]
        # each family numbers its own strategies from 1
        for family in (packet, inject, hitseqwindow):
            assert [s.strategy_id for s in family] == list(range(1, len(family) + 1))

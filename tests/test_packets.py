"""Packet formats: field specs, the description language, generated codecs."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.packets.fields import FieldSpec, FlagBit
from repro.packets.header import (
    HeaderDescriptionError,
    HeaderFormat,
    parse_header_description,
)
from repro.packets.packet import IP_HEADER_BYTES, Packet
from repro.packets.tcp import (
    ACK,
    FIN,
    FLAG_BITS,
    PSH,
    RST,
    SYN,
    TCP_FORMAT,
    TcpHeader,
    URG,
    VALID_FLAG_COMBOS,
    VALID_FLAG_VALUES,
    tcp_packet_type,
)
from repro.packets.dccp import (
    DCCP_FORMAT,
    DCCP_TYPES,
    DccpHeader,
    dccp_packet_type,
    make_dccp_header,
)


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("f", 16).max_value == 65535

    def test_default_must_fit(self):
        with pytest.raises(ValueError):
            FieldSpec("f", 4, default=16)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("f", 0)
        with pytest.raises(ValueError):
            FieldSpec("f", 65)

    def test_flag_mask_lookup(self):
        spec = FieldSpec("flags", 8, flags=(FlagBit("syn", 0x02),))
        assert spec.flag_mask("syn") == 0x02
        with pytest.raises(KeyError):
            spec.flag_mask("nope")

    def test_flag_mask_must_fit(self):
        with pytest.raises(ValueError):
            FieldSpec("flags", 2, flags=(FlagBit("big", 0x10),))

    def test_enum_lookup(self):
        spec = FieldSpec("type", 4, enum=((0, "request"), (1, "response")))
        assert spec.enum_name(1) == "response"
        assert spec.enum_name(9) is None
        assert spec.enum_value("request") == 0
        with pytest.raises(KeyError):
            spec.enum_value("bogus")

    def test_clamp_wraps(self):
        spec = FieldSpec("f", 8)
        assert spec.clamp(256) == 0
        assert spec.clamp(-1) == 255


class TestDescriptionLanguage:
    def test_round_trip_simple(self):
        fmt = parse_header_description(
            "header demo { a: 8 = 7; b: 16; flags: 8 flags { x=0x01, y=0x02 }; }"
        )
        assert fmt.name == "demo"
        assert [f.name for f in fmt.fields] == ["a", "b", "flags"]
        assert fmt.field("a").default == 7
        assert fmt.length_bytes == 4

    def test_comments_stripped(self):
        fmt = parse_header_description(
            "header demo {\n  a: 8; # trailing comment\n  b: 8;\n}"
        )
        assert len(fmt.fields) == 2

    def test_immutable_marker(self):
        fmt = parse_header_description("header d { a: 8; csum: 8 immutable; }")
        assert fmt.field("csum").mutable is False
        assert [f.name for f in fmt.mutable_fields] == ["a"]

    def test_enum_block(self):
        fmt = parse_header_description("header d { t: 8 enum { a=0, b=1 }; }")
        assert fmt.field("t").enum_value("b") == 1

    def test_rejects_garbage(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("not a header")

    def test_rejects_bad_field(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { :::; }")

    def test_rejects_unaligned_total(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 3; }")

    def test_rejects_duplicate_fields(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 8; a: 8; }")

    def test_rejects_empty_enum(self):
        with pytest.raises(HeaderDescriptionError):
            parse_header_description("header d { a: 8 enum { }; }")

    def test_rejects_field_names_that_cannot_be_keywords(self):
        # every field is a keyword argument of the generated constructor
        with pytest.raises(HeaderDescriptionError, match="class"):
            parse_header_description("header d { class: 8; }")
        with pytest.raises(HeaderDescriptionError, match="9lives"):
            HeaderFormat("d", [FieldSpec("9lives", 8)])

    def test_helper_names_cannot_shadow_fields(self):
        # fields named like the generated constructor's own names still work
        fmt = parse_header_description(
            "header d { self: 8 = 1; _unset: 8; _fmt: 8; unknown: 8 = 2; }"
        )
        header = fmt.build_class()(self=300, _fmt=7)
        assert header.to_dict() == {"self": 44, "_unset": 0, "_fmt": 7, "unknown": 2}
        with pytest.raises(KeyError, match="bogus"):
            fmt.build_class()(bogus=1)


class TestGeneratedHeaders:
    def test_defaults_applied(self):
        header = TcpHeader()
        assert header.window == 65535
        assert header.data_offset == 6

    def test_kwargs_clamped(self):
        header = TcpHeader(sport=1 << 20)
        assert header.sport == (1 << 20) & 0xFFFF

    def test_set_get(self):
        header = TcpHeader()
        header.set("seq", 12345)
        assert header.get("seq") == 12345

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            TcpHeader().set("bogus", 1)

    def test_clone_is_independent(self):
        header = TcpHeader(seq=5)
        copy = header.clone()
        copy.seq = 9
        assert header.seq == 5

    def test_equality_and_hash(self):
        a, b = TcpHeader(seq=1), TcpHeader(seq=1)
        assert a == b
        assert hash(a) == hash(b)
        b.seq = 2
        assert a != b

    def test_pack_parse_round_trip(self):
        header = TcpHeader(sport=1234, dport=80, seq=0xDEADBEEF, ack=42)
        header.flags_set("syn", "ack")
        parsed = TcpHeader.parse(header.pack())
        assert parsed == header

    def test_parse_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            TcpHeader.parse(b"\x00" * 3)

    @given(
        st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0x3F),
    )
    def test_round_trip_property(self, sport, dport, seq, ack, flags):
        header = TcpHeader(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags)
        assert TcpHeader.parse(header.pack()) == header

    def test_values_masked_to_field_width(self):
        assert TcpHeader(seq=2**32 + 5).seq == 5
        assert TcpHeader(seq=-1).seq == 0xFFFFFFFF
        assert TcpHeader(data_offset=-1).data_offset == 0xF
        assert make_dccp_header("DATA", seq=-1).seq == (1 << 48) - 1

    def test_values_coerced_with_int(self):
        header = TcpHeader(flags=True, window=3.0)
        assert header.flags == 1 and type(header.flags) is int
        assert header.window == 3 and type(header.window) is int

    def test_unset_fields_take_defaults(self):
        header = TcpHeader(seq=1)
        assert (header.data_offset, header.window, header.mss_opt) == (6, 65535, 1460)
        assert (header.sport, header.ack, header.flags) == (0, 0, 0)
        assert DccpHeader().x == 1
        assert DccpHeader().data_offset == 6

    def test_unknown_field_names_the_field(self):
        with pytest.raises(KeyError, match="tcp header has no field 'bogus'"):
            TcpHeader(seq=1, bogus=2)
        with pytest.raises(KeyError, match="'nope'"):
            make_dccp_header("ACK", nope=1)

    def test_positional_arguments_rejected(self):
        with pytest.raises(TypeError):
            TcpHeader(1)
        with pytest.raises(TypeError):
            DccpHeader(1, 2)

    @pytest.mark.parametrize("cls", [TcpHeader, DccpHeader], ids=["tcp", "dccp"])
    @given(data=st.data())
    def test_generated_constructor_matches_setattr_loop(self, cls, data):
        names = data.draw(
            st.lists(st.sampled_from([spec.name for spec in cls.FORMAT.fields]), unique=True)
        )
        values = {
            name: data.draw(st.one_of(st.integers(-(1 << 70), 1 << 70), st.booleans()))
            for name in names
        }
        header = cls(**values)
        assert header == _setattr_loop(cls, values)
        assert all(type(value) is int for value in header.to_dict().values())


def _setattr_loop(cls, values):
    """The constructor before it was generated: defaults, then masked values."""
    header = cls.__new__(cls)
    fmt = cls.FORMAT
    for spec in fmt.fields:
        setattr(header, spec.name, spec.default)
    for name, value in values.items():
        setattr(header, name, int(value) & fmt.field(name).max_value)
    return header


class TestTcpTypes:
    def test_flag_names(self):
        header = TcpHeader().flags_set("syn", "ack")
        assert tcp_packet_type(header) == "SYN+ACK"

    def test_no_flags_is_none_type(self):
        assert tcp_packet_type(TcpHeader()) == "NONE"

    def test_flag_helpers(self):
        header = TcpHeader()
        header.set_flag("flags", "rst")
        assert header.has_flag("flags", "rst")
        header.set_flag("flags", "rst", on=False)
        assert not header.has_flag("flags", "rst")
        assert header.flag_names("flags") == []

    def test_valid_combo_detection(self):
        assert TcpHeader().flags_set("syn").is_valid_flag_combo
        weird = TcpHeader().flags_set("syn", "fin", "rst")
        assert not weird.is_valid_flag_combo

    def test_flag_constants_match_the_description(self):
        assert [FIN, SYN, RST, PSH, ACK, URG] == [
            TCP_FORMAT.field("flags").flag_mask(name)
            for name in ("fin", "syn", "rst", "psh", "ack", "urg")
        ]
        assert FLAG_BITS == 0x3F

    def test_valid_flag_values_match_the_type_names(self):
        for value in range(256):
            header = TcpHeader(flags=value)
            assert ((value & FLAG_BITS) in VALID_FLAG_VALUES) == header.is_valid_flag_combo

    def test_format_has_thirteen_fields(self):
        assert len(TCP_FORMAT.fields) == 13

    def test_checksum_immutable(self):
        assert not TCP_FORMAT.field("checksum").mutable


class TestDccpTypes:
    def test_type_round_trip(self):
        for name in DCCP_TYPES:
            header = make_dccp_header(name)
            assert dccp_packet_type(header) == name

    def test_unknown_type_name(self):
        header = DccpHeader(type=15)
        assert dccp_packet_type(header) == "UNKNOWN15"

    def test_type_setter(self):
        header = DccpHeader()
        header.packet_type = "sync"
        assert header.packet_type == "SYNC"

    def test_make_header_type_overrides_a_type_value(self):
        header = make_dccp_header("sync", type=3, seq=9)
        assert (header.packet_type, header.seq) == ("SYNC", 9)

    def test_carries_ack(self):
        assert make_dccp_header("ACK").carries_ack
        assert not make_dccp_header("REQUEST").carries_ack
        assert not make_dccp_header("DATA").carries_ack

    def test_48bit_seq(self):
        header = make_dccp_header("DATA", seq=(1 << 48) - 1)
        assert header.seq == (1 << 48) - 1
        assert DccpHeader.parse(header.pack()) == header


class TestPacket:
    def test_size_includes_ip_overhead(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 100)
        assert packet.size_bytes == IP_HEADER_BYTES + TcpHeader().length_bytes + 100

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet("a", "b", "tcp", TcpHeader(), -1)

    def test_clone_gets_new_identity(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 10)
        copy = packet.clone()
        assert copy.packet_id != packet.packet_id
        assert copy.header == packet.header
        assert copy.header is not packet.header

    def test_deepcopy_copies_the_header_and_keeps_identity(self):
        header = TcpHeader(seq=7).flags_set("syn")
        first = Packet("a", "b", "tcp", header, 10, sent_at=1.5)
        second = Packet("a", "b", "tcp", header, 0)
        copied_first, copied_second = copy.deepcopy([first, second])
        assert copied_first.header == header
        assert copied_first.header is not header
        # a header shared by two packets stays shared in the copy
        assert copied_second.header is copied_first.header
        assert (copied_first.packet_id, copied_first.sent_at) == (first.packet_id, 1.5)
        assert (copied_first.src, copied_first.dst, copied_first.payload_len) == ("a", "b", 10)
        copied_first.header.seq = 9
        assert header.seq == 7

    def test_reversed_swaps_addresses(self):
        packet = Packet("a", "b", "tcp", TcpHeader(), 10)
        back = packet.reversed()
        assert (back.src, back.dst) == ("b", "a")

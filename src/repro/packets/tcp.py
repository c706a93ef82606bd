"""TCP header description (RFC 793 with common options, 13 fields).

The paper's search-space arithmetic assumes "the 13 fields in the TCP
header"; this description declares exactly 13, counting the standard header
fields plus the three options every modern handshake carries (MSS, window
scale, SACK-permitted).  The checksum is declared immutable: the proxy
recomputes checksums after modification, so lying about it degenerates to
the ``drop`` attack.
"""

from __future__ import annotations

from repro.packets.header import Header, parse_header_description

TCP_DESCRIPTION = """
header tcp {
    sport:        16;
    dport:        16;
    seq:          32;
    ack:          32;
    data_offset:   4 = 6;
    reserved:      4;
    flags:         8 flags { fin=0x01, syn=0x02, rst=0x04, psh=0x08, ack=0x10, urg=0x20 };
    window:       16 = 65535;
    checksum:     16 immutable;
    urgent_ptr:   16;
    mss_opt:      16 = 1460;
    wscale_opt:    8;
    sack_ok_opt:   8;
}
"""

TCP_FORMAT = parse_header_description(TCP_DESCRIPTION)

#: flag presentation order for canonical packet-type names
_FLAG_ORDER = ("syn", "fin", "rst", "psh", "ack", "urg")

#: flag combinations that occur in normal protocol operation
VALID_FLAG_COMBOS = frozenset(
    {
        "SYN",
        "SYN+ACK",
        "ACK",
        "PSH+ACK",
        "FIN+ACK",
        "FIN+PSH+ACK",
        "RST",
        "RST+ACK",
        "URG+ACK",
        "FIN",
    }
)


class TcpHeader(TCP_FORMAT.build_class()):
    """TCP header with flag conveniences layered over the generated codec."""

    __slots__ = ()

    @property
    def packet_type(self) -> str:
        return tcp_packet_type(self)

    def flags_set(self, *names: str) -> "TcpHeader":
        """Set the given flags and return self (builder style)."""
        for name in names:
            self.set_flag("flags", name)
        return self

    @property
    def is_valid_flag_combo(self) -> bool:
        return self.packet_type in VALID_FLAG_COMBOS


_FLAGS_FIELD = TCP_FORMAT.field("flags")

#: flag-bit masks, for building ``flags`` values and testing them as ints
FIN, SYN, RST, PSH, ACK, URG = (
    _FLAGS_FIELD.flag_mask(bit) for bit in ("fin", "syn", "rst", "psh", "ack", "urg")
)

#: the six named flag bits; the field's two high bits never affect the type
FLAG_BITS = FIN | SYN | RST | PSH | ACK | URG

#: packet-type name for every combination of the named flag bits
_TYPE_NAMES = tuple(
    "+".join(bit.upper() for bit in _FLAG_ORDER if value & _FLAGS_FIELD.flag_mask(bit))
    or "NONE"
    for value in range(FLAG_BITS + 1)
)

#: ``flags & FLAG_BITS`` values whose packet type is in VALID_FLAG_COMBOS
VALID_FLAG_VALUES = frozenset(
    value for value, name in enumerate(_TYPE_NAMES) if name in VALID_FLAG_COMBOS
)


def tcp_packet_type(header: Header) -> str:
    """Canonical packet-type name derived from the flag bits.

    Examples: ``"SYN"``, ``"SYN+ACK"``, ``"PSH+ACK"``, ``"RST"``.  A packet
    with no flags set is ``"NONE"`` (never valid on the wire, but the ``lie``
    attack can produce it and implementations must cope).
    """
    return _TYPE_NAMES[header.flags & FLAG_BITS]


def make_tcp_header(**values: int) -> TcpHeader:
    return TcpHeader(**values)

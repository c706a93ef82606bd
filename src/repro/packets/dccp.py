"""DCCP header description (RFC 4340 generic header, long sequence numbers).

DCCP identifies packet kinds with a 4-bit ``type`` field instead of TCP's
flag bits.  We model the long (48-bit) sequence-number form (``x = 1``) for
every packet, which is what Linux's CCID 2 implementation uses for all
non-DATA packets and simplifies the sequence-window arithmetic without
changing any of the behaviours the paper attacks.
"""

from __future__ import annotations

from repro.packets.header import Header, parse_header_description

DCCP_DESCRIPTION = """
header dccp {
    sport:        16;
    dport:        16;
    data_offset:   8 = 6;
    ccval:         4;
    cscov:         4;
    checksum:     16 immutable;
    reserved:      3;
    type:          4 enum { request=0, response=1, data=2, ack=3, dataack=4,
                            closereq=5, close=6, reset=7, sync=8, syncack=9 };
    x:             1 = 1;
    seq:          48;
    ack:          48;
    service:      32;
}
"""

DCCP_FORMAT = parse_header_description(DCCP_DESCRIPTION)

#: symbolic names in type-field order
DCCP_TYPES = (
    "REQUEST",
    "RESPONSE",
    "DATA",
    "ACK",
    "DATAACK",
    "CLOSEREQ",
    "CLOSE",
    "RESET",
    "SYNC",
    "SYNCACK",
)

_TYPE_FIELD = DCCP_FORMAT.field("type")
#: type-field value of each symbolic name in DCCP_TYPES
TYPE_VALUES = {name: _TYPE_FIELD.enum_value(name.lower()) for name in DCCP_TYPES}
_VALUE_TO_NAME = {value: name for name, value in TYPE_VALUES.items()}

#: packet types that carry a meaningful acknowledgement number
ACK_BEARING_TYPES = frozenset(
    {"RESPONSE", "ACK", "DATAACK", "CLOSEREQ", "CLOSE", "RESET", "SYNC", "SYNCACK"}
)

SEQ_MODULUS = 1 << 48


class DccpHeader(DCCP_FORMAT.build_class()):
    """DCCP header with type conveniences layered over the generated codec."""

    __slots__ = ()

    @property
    def packet_type(self) -> str:
        return dccp_packet_type(self)

    @packet_type.setter
    def packet_type(self, name: str) -> None:
        self.type = TYPE_VALUES[name.upper()]

    @property
    def carries_ack(self) -> bool:
        return self.packet_type in ACK_BEARING_TYPES


def dccp_packet_type(header: Header) -> str:
    """Symbolic packet-type name; unknown values map to ``"UNKNOWN<n>"``."""
    value = header.type
    name = _VALUE_TO_NAME.get(value)
    return f"UNKNOWN{value}" if name is None else name


def make_dccp_header(packet_type: str, **values: int) -> DccpHeader:
    """A header of ``packet_type``, which takes precedence over a ``type`` value."""
    values["type"] = TYPE_VALUES[packet_type.upper()]
    return DccpHeader(**values)

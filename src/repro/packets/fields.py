"""Field specifications for protocol headers.

A header is an ordered list of :class:`FieldSpec` objects.  Widths are in
bits; fields are packed most-significant-bit first, matching how the RFCs
draw header diagrams.  A field may carry named flag bits (TCP's control
bits), an enumeration (DCCP's packet type), or be plain unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class FlagBit:
    """A named bit inside a flags field (e.g. TCP SYN = 0x02)."""

    name: str
    mask: int


@dataclass(frozen=True)
class FieldSpec:
    """One header field.

    Attributes
    ----------
    name:
        Attribute name on the generated header class.
    width:
        Width in bits.
    default:
        Initial value for freshly built headers.
    flags:
        Named bits, for flag-style fields.  Empty for plain fields.
    enum:
        value -> symbolic-name mapping, for type-style fields.
    mutable:
        Whether the ``lie`` basic attack should target this field.  The
        checksum, for instance, is recomputed by the proxy rather than lied
        about (a bad checksum is just a silent drop, which the ``drop``
        attack already covers).
    """

    name: str
    width: int
    default: int = 0
    flags: Tuple[FlagBit, ...] = ()
    enum: Optional[Tuple[Tuple[int, str], ...]] = None
    mutable: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width > 64:
            raise ValueError(f"field {self.name}: width {self.width} out of range")
        if not (0 <= self.default <= self.max_value):
            raise ValueError(f"field {self.name}: default {self.default} does not fit in {self.width} bits")
        for bit in self.flags:
            if bit.mask <= 0 or bit.mask > self.max_value:
                raise ValueError(f"flag {bit.name} mask {bit.mask:#x} does not fit in field {self.name}")

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1

    def flag_mask(self, flag_name: str) -> int:
        for bit in self.flags:
            if bit.name == flag_name:
                return bit.mask
        raise KeyError(f"field {self.name} has no flag {flag_name!r}")

    def enum_name(self, value: int) -> Optional[str]:
        if self.enum is None:
            return None
        for val, name in self.enum:
            if val == value:
                return name
        return None

    def enum_value(self, name: str) -> int:
        if self.enum is None:
            raise KeyError(f"field {self.name} is not an enum")
        for val, enum_name in self.enum:
            if enum_name == name:
                return val
        raise KeyError(f"field {self.name} has no enum member {name!r}")

    def clamp(self, value: int) -> int:
        """Truncate an arbitrary integer into this field (wraparound)."""
        return value & self.max_value

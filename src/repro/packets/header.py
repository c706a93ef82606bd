"""Header description language and header-class generation.

The description language mirrors the one the paper feeds to SNAKE.  A header
is declared as an ordered list of bit-fields::

    header tcp {
        sport:    16 = 49152;
        dport:    16 = 80;
        seq:      32;
        flags:     8 flags { fin=0x01, syn=0x02, rst=0x04, psh=0x08, ack=0x10, urg=0x20 };
        type:      4 enum  { request=0, response=1 };
        checksum: 16 immutable;
    }

Each field is ``name: width_bits [= default] [flags {...}] [enum {...}]
[immutable];``.  :func:`parse_header_description` turns the text into a
:class:`HeaderFormat`; :meth:`HeaderFormat.build_class` then generates a
concrete header class with ``__slots__``, defaults, ``pack``/``parse``
round-tripping, ``clone`` and flag helpers — the Python analog of the
paper's auto-generated C++ protocol-processing code.
"""

from __future__ import annotations

import keyword
import re
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.packets.fields import FieldSpec, FlagBit


class HeaderDescriptionError(ValueError):
    """Raised when a header description cannot be parsed."""


_HEADER_RE = re.compile(r"header\s+(\w+)\s*\{(.*)\}\s*$", re.S)
_FIELD_RE = re.compile(
    r"""
    (?P<name>\w+)\s*:\s*(?P<width>\d+)
    (?:\s*=\s*(?P<default>0x[0-9a-fA-F]+|\d+))?
    (?:\s*(?P<kind>flags|enum)\s*\{(?P<members>[^}]*)\})?
    (?:\s*(?P<immutable>immutable))?
    \s*$
    """,
    re.X,
)
_MEMBER_RE = re.compile(r"(\w+)\s*=\s*(0x[0-9a-fA-F]+|\d+)")


def _parse_int(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def parse_header_description(text: str) -> "HeaderFormat":
    """Parse the textual header description into a :class:`HeaderFormat`."""
    stripped = "\n".join(
        line.split("#", 1)[0] for line in text.splitlines()
    ).strip()
    match = _HEADER_RE.match(stripped)
    if match is None:
        raise HeaderDescriptionError("expected 'header <name> { ... }'")
    proto_name, body = match.group(1), match.group(2)
    fields: List[FieldSpec] = []
    for raw in body.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        fmatch = _FIELD_RE.match(raw)
        if fmatch is None:
            raise HeaderDescriptionError(f"cannot parse field declaration: {raw!r}")
        name = fmatch.group("name")
        width = int(fmatch.group("width"))
        default = _parse_int(fmatch.group("default")) if fmatch.group("default") else 0
        kind = fmatch.group("kind")
        flags: Tuple[FlagBit, ...] = ()
        enum: Optional[Tuple[Tuple[int, str], ...]] = None
        if kind is not None:
            members = _MEMBER_RE.findall(fmatch.group("members"))
            if not members:
                raise HeaderDescriptionError(f"empty {kind} block in field {name!r}")
            if kind == "flags":
                flags = tuple(FlagBit(mname, _parse_int(mval)) for mname, mval in members)
            else:
                enum = tuple((_parse_int(mval), mname) for mname, mval in members)
        mutable = fmatch.group("immutable") is None
        fields.append(FieldSpec(name, width, default, flags, enum, mutable))
    return HeaderFormat(proto_name, fields)


class HeaderFormat:
    """An ordered collection of :class:`FieldSpec` defining a wire header."""

    def __init__(self, name: str, fields: List[FieldSpec]):
        if not fields:
            raise HeaderDescriptionError("header needs at least one field")
        seen = set()
        for spec in fields:
            if spec.name in seen:
                raise HeaderDescriptionError(f"duplicate field {spec.name!r}")
            if not spec.name.isidentifier() or keyword.iskeyword(spec.name):
                # each field is a slot and a constructor keyword
                raise HeaderDescriptionError(f"field name {spec.name!r} is not an identifier")
            seen.add(spec.name)
        total = sum(spec.width for spec in fields)
        if total % 8 != 0:
            raise HeaderDescriptionError(f"total width {total} bits is not byte aligned")
        self.name = name
        self.fields: Tuple[FieldSpec, ...] = tuple(fields)
        self.by_name: Dict[str, FieldSpec] = {spec.name: spec for spec in fields}
        self.total_bits = total
        self.length_bytes = total // 8
        #: precomputed per-field ``(name, shift, mask)`` wire plan so
        #: ``pack``/``parse`` avoid re-walking FieldSpec attribute lookups on
        #: every packet; the shift is the field's bit offset from the LSB of
        #: the packed integer (MSB-first field order)
        plan: List[Tuple[str, int, int]] = []
        shift = total
        for spec in fields:
            shift -= spec.width
            plan.append((spec.name, shift, spec.max_value))
        self.wire_plan: Tuple[Tuple[str, int, int], ...] = tuple(plan)
        #: per-packet lookup table, so testing a flag by name is one
        #: dictionary hit instead of a walk over the FieldSpecs
        self.flag_masks: Dict[Tuple[str, str], int] = {
            (spec.name, bit.name): bit.mask for spec in fields for bit in spec.flags
        }
        self._cls: Optional[Type["Header"]] = None

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self.fields)

    def field(self, name: str) -> FieldSpec:
        try:
            return self.by_name[name]
        except KeyError:
            raise KeyError(f"{self.name} header has no field {name!r}") from None

    @property
    def mutable_fields(self) -> List[FieldSpec]:
        return [spec for spec in self.fields if spec.mutable]

    # ------------------------------------------------------------------
    def build_class(self, base: Type["Header"] = None) -> Type["Header"]:
        """Generate (once) and return the concrete header class."""
        if self._cls is not None and base is None:
            return self._cls
        base_cls = base if base is not None else Header
        namespace: Dict[str, Any] = {
            "__slots__": tuple(spec.name for spec in self.fields),
            "FORMAT": self,
            "length_bytes": self.length_bytes,
            "__init__": self._build_init(),
        }
        cls = type(f"{self.name.capitalize()}GeneratedHeader", (base_cls,), namespace)
        if base is None:
            self._cls = cls
        return cls

    def _build_init(self) -> Callable[..., None]:
        """Compile the keyword-only ``__init__`` of the generated class.

        Like :mod:`dataclasses`, the constructor is generated source, so
        building a header is one call with one line per field: an unset
        field takes its default, a set one stores ``int(value) & mask``.
        An unknown keyword raises the descriptive :meth:`field` error.
        """
        names = [spec.name for spec in self.fields]

        def fresh(name: str) -> str:
            # helper names the generated code uses must not be field names
            while name in names:
                name = "_" + name
            return name

        inst, unset, fmt, unknown = (fresh(n) for n in ("self", "_unset", "_fmt", "unknown"))
        params = ", ".join(f"{name}={unset}" for name in names)
        lines = [
            f"def __init__({inst}, *, {params}, **{unknown}):",
            f"    if {unknown}:",
            f"        {fmt}.field(next(iter({unknown})))",
        ]
        lines += [
            f"    {inst}.{spec.name} = {spec.default} if {spec.name} is {unset} "
            f"else int({spec.name}) & {spec.max_value}"
            for spec in self.fields
        ]
        namespace: Dict[str, Any] = {unset: object(), fmt: self}
        exec("\n".join(lines), namespace)  # noqa: S102 - names are checked identifiers
        return namespace["__init__"]


class Header:
    """Base class for generated headers.

    Subclasses are produced by :meth:`HeaderFormat.build_class` and carry a
    ``FORMAT`` class attribute plus one slot per field.
    """

    __slots__ = ()
    FORMAT: HeaderFormat
    #: wire length; a class attribute set by :meth:`HeaderFormat.build_class`
    length_bytes: int

    # ------------------------------------------------------------------
    def get(self, name: str) -> int:
        return getattr(self, name)

    def set(self, name: str, value: int) -> None:
        spec = self.FORMAT.field(name)
        setattr(self, name, spec.clamp(int(value)))

    def clone(self) -> "Header":
        copy = self.__class__.__new__(self.__class__)
        for spec in self.FORMAT.fields:
            setattr(copy, spec.name, getattr(self, spec.name))
        return copy

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Header":
        # every field holds an int, so a clone is a deep copy; the snapshot
        # engine deep-copies every header of a paused world per fork
        return self.clone()

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------
    def has_flag(self, field_name: str, flag_name: str) -> bool:
        mask = self.FORMAT.flag_masks.get((field_name, flag_name))
        if mask is None:
            mask = self.FORMAT.field(field_name).flag_mask(flag_name)  # raises KeyError
        return bool(getattr(self, field_name) & mask)

    def set_flag(self, field_name: str, flag_name: str, on: bool = True) -> None:
        mask = self.FORMAT.flag_masks.get((field_name, flag_name))
        if mask is None:
            mask = self.FORMAT.field(field_name).flag_mask(flag_name)  # raises KeyError
        value = getattr(self, field_name)
        setattr(self, field_name, (value | mask) if on else (value & ~mask))

    def flag_names(self, field_name: str) -> List[str]:
        spec = self.FORMAT.field(field_name)
        value = getattr(self, field_name)
        return [bit.name for bit in spec.flags if value & bit.mask]

    # ------------------------------------------------------------------
    # wire image
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Serialize to bytes (MSB-first field order)."""
        fmt = self.FORMAT
        accumulator = 0
        for name, shift, mask in fmt.wire_plan:
            accumulator |= (getattr(self, name) & mask) << shift
        return accumulator.to_bytes(fmt.length_bytes, "big")

    @classmethod
    def parse(cls, data: bytes) -> "Header":
        fmt = cls.FORMAT
        if len(data) < fmt.length_bytes:
            raise ValueError(
                f"short {fmt.name} header: {len(data)} bytes < {fmt.length_bytes}"
            )
        accumulator = int.from_bytes(data[: fmt.length_bytes], "big")
        header = cls.__new__(cls)
        for name, shift, mask in fmt.wire_plan:
            setattr(header, name, (accumulator >> shift) & mask)
        return header

    def to_dict(self) -> Dict[str, int]:
        return {spec.name: getattr(self, spec.name) for spec in self.FORMAT.fields}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Header) or other.FORMAT is not self.FORMAT:
            return NotImplemented
        return all(
            getattr(self, spec.name) == getattr(other, spec.name)
            for spec in self.FORMAT.fields
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, spec.name) for spec in self.FORMAT.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{spec.name}={getattr(self, spec.name)}" for spec in self.FORMAT.fields)
        return f"<{self.FORMAT.name} {parts}>"

"""The simulated network-layer packet.

Packets carry addressing metadata (the simulator's IP layer), a transport
header object, and a payload *length* rather than payload bytes — the
applications under test transfer opaque bulk data, so only sequence ranges
and sizes matter, and skipping byte buffers keeps full strategy sweeps fast.
"""

from __future__ import annotations

import itertools
from copy import deepcopy
from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.packets.header import Header

#: bytes of network-layer overhead added to every packet on the wire
IP_HEADER_BYTES = 20

_packet_ids = itertools.count(1)


class Packet:
    """A packet in flight.

    Attributes
    ----------
    src, dst:
        Host addresses (opaque strings).  Spoofable: off-path injection
        forges ``src``.
    proto:
        Protocol demux key (``"tcp"`` or ``"dccp"``).
    header:
        Transport header object (a generated :class:`Header` subclass).
    payload_len:
        Application bytes carried.
    """

    __slots__ = ("src", "dst", "proto", "header", "payload_len", "packet_id", "sent_at")

    def __init__(
        self,
        src: str,
        dst: str,
        proto: str,
        header: "Header",
        payload_len: int = 0,
        sent_at: Optional[float] = None,
    ):
        if payload_len < 0:
            raise ValueError("payload_len cannot be negative")
        self.src = src
        self.dst = dst
        self.proto = proto
        self.header = header
        self.payload_len = payload_len
        self.packet_id = next(_packet_ids)
        self.sent_at = sent_at

    @property
    def size_bytes(self) -> int:
        return IP_HEADER_BYTES + self.header.length_bytes + self.payload_len

    def clone(self) -> "Packet":
        """Deep-enough copy: new identity, cloned header, shared metadata."""
        return Packet(
            self.src, self.dst, self.proto, self.header.clone(), self.payload_len, self.sent_at
        )

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Packet":
        # everything but the header is immutable; unlike clone(), a deep
        # copy keeps packet_id: it is the same packet in a copied world
        copy = Packet.__new__(Packet)
        copy.src = self.src
        copy.dst = self.dst
        copy.proto = self.proto
        copy.header = deepcopy(self.header, memo)
        copy.payload_len = self.payload_len
        copy.packet_id = self.packet_id
        copy.sent_at = self.sent_at
        return copy

    def reversed(self) -> "Packet":
        """Copy with src/dst swapped (used by the ``reflect`` basic attack).

        Transport ports are part of the header and are swapped by the attack
        implementation, not here.
        """
        clone = self.clone()
        clone.src, clone.dst = self.dst, self.src
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.src}->{self.dst} {self.proto} "
            f"len={self.payload_len} {self.header!r}>"
        )

"""Links: bandwidth, propagation delay, and drop-tail queueing.

A :class:`Link` is full duplex and built from two independent :class:`Pipe`
objects, one per direction.  Each pipe models a transmitter that serializes
one packet at a time at ``bandwidth_bps`` and a propagation delay of
``delay_s``; packets arriving while the transmitter is busy wait in a FIFO
queue bounded by ``queue_packets`` (drop-tail, like NS-3's default queue).

This byte-accurate contention model is what makes the paper's throughput
phenomena emerge naturally: competing flows share the bottleneck, injected
attack traffic (``hitseqwindow``) steals serialization time from the target
connection, and queue overflow produces congestion losses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional, TYPE_CHECKING

from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.node import Host
    from repro.packets.packet import Packet


@dataclass
class PipeStats:
    """Counters kept per direction of a link."""

    packets_enqueued: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    bytes_dropped: int = 0
    queue_peak: int = 0


def _discard(packet: "Packet", pipe: "Pipe") -> None:
    """Arrival at a pipe with no receiver."""


class Pipe:
    """One direction of a link.

    The receiving side is any object with ``receive(packet, pipe)``; in
    practice that is a :class:`~repro.netsim.node.Host`.  A tap, when
    installed, sees every packet before it is queued and may drop, modify,
    delay, or replace it (see :mod:`repro.netsim.tap`).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int = 64,
        name: str = "pipe",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.name = name
        self.dst: Optional[Any] = None
        self.stats = PipeStats()
        self.tap: Optional[Callable[["Packet", "Pipe"], Any]] = None
        self._queue: Deque["Packet"] = deque()
        self._busy = False

    # ------------------------------------------------------------------
    def transmit(self, packet: "Packet") -> None:
        """Entry point: pass the packet through the tap (if any) and enqueue."""
        if self.tap is not None:
            # The tap takes over delivery.  It calls ``enqueue`` for every
            # packet (possibly modified, duplicated, delayed, or new) that
            # should actually traverse the wire.
            self.tap(packet, self)
            return
        self.enqueue(packet)

    def enqueue(self, packet: "Packet") -> None:
        """Place a packet on the transmit queue, dropping on overflow."""
        queue = self._queue
        stats = self.stats
        if len(queue) >= self.queue_packets:
            stats.packets_dropped += 1
            stats.bytes_dropped += packet.size_bytes
            return
        stats.packets_enqueued += 1
        if self._busy:
            queue.append(packet)
            depth = len(queue)
            if depth > stats.queue_peak:
                stats.queue_peak = depth
            return
        # an idle transmitter has an empty queue: the packet passes through
        # it (a depth of one) straight onto the wire
        if not stats.queue_peak:
            stats.queue_peak = 1
        self._busy = True
        size = packet.size_bytes
        self.sim.post(size * 8.0 / self.bandwidth_bps, self._finish_serialization, packet, size)

    # ------------------------------------------------------------------
    def _finish_serialization(self, packet: "Packet", size: int) -> None:
        """The last bit left: count it, launch it, start the next packet.

        The arrival event calls the receiver itself; a pipe with no ``dst``
        still spends that event, on a no-op.
        """
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        sim = self.sim
        dst = self.dst
        sim.post(self.delay_s, _discard if dst is None else dst.receive, packet, self)
        queue = self._queue
        if not queue:
            self._busy = False
            return
        packet = queue.popleft()
        size = packet.size_bytes
        sim.post(size * 8.0 / self.bandwidth_bps, self._finish_serialization, packet, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipe {self.name} {self.bandwidth_bps / 1e6:.1f}Mbps {self.delay_s * 1e3:.1f}ms>"


class Link:
    """Full-duplex link between two hosts, as two pipes."""

    def __init__(
        self,
        sim: Simulator,
        a: "Host",
        b: "Host",
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int = 64,
        name: str = "link",
    ):
        self.name = name
        self.a = a
        self.b = b
        self.ab = Pipe(sim, bandwidth_bps, delay_s, queue_packets, name=f"{name}:{a.name}->{b.name}")
        self.ba = Pipe(sim, bandwidth_bps, delay_s, queue_packets, name=f"{name}:{b.name}->{a.name}")
        self.ab.dst = b
        self.ba.dst = a
        a.attach(self, self.ab)
        b.attach(self, self.ba)

    def pipe_from(self, host: "Host") -> Pipe:
        """The pipe that carries traffic *sent by* ``host``."""
        if host is self.a:
            return self.ab
        if host is self.b:
            return self.ba
        raise ValueError(f"{host!r} is not an endpoint of {self.name}")

    def pipe_to(self, host: "Host") -> Pipe:
        """The pipe that carries traffic *towards* ``host``."""
        if host is self.a:
            return self.ba
        if host is self.b:
            return self.ab
        raise ValueError(f"{host!r} is not an endpoint of {self.name}")

    def other(self, host: "Host") -> "Host":
        if host is self.a:
            return self.b
        if host is self.b:
            return self.a
        raise ValueError(f"{host!r} is not an endpoint of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.a.name}<->{self.b.name}>"

"""Off-path attack campaigns: ``inject`` and ``hitseqwindow``.

A campaign forges packets and places them on the wire through the proxy.  It
is triggered either at a fixed time offset from test start (the only option
for attacking the competing connection, whose state the proxy cannot see) or
when the tracked connection's endpoint enters a given protocol state — the
state-aware injection that gives SNAKE its coverage of handshake windows.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING, Union

from repro.obs.bus import BUS
from repro.packets.packet import Packet
from repro.proxy.craft import craft_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.proxy.proxy import AttackProxy

#: trigger forms: ("time", seconds) or ("state", role, state_name)
Trigger = Union[Tuple[str, float], Tuple[str, str, str]]

RANDOM = "random"  # sentinel usable as a field value


class InjectionCampaign:
    """Base class: arming, triggering, and field materialization."""

    name = "campaign"

    def __init__(self, trigger: Trigger):
        self.trigger = trigger
        self.fired = 0
        self._armed_proxy: Optional["AttackProxy"] = None

    # ------------------------------------------------------------------
    def arm(self, proxy: "AttackProxy") -> None:
        self._armed_proxy = proxy
        kind = self.trigger[0]
        if kind == "time":
            proxy.sim.post(float(self.trigger[1]), self.fire, proxy)
        elif kind == "state":
            _, role, state = self.trigger
            proxy.add_state_hook(role, state, self._on_state_entered)
        else:
            raise ValueError(f"unknown trigger kind {kind!r}")

    def _on_state_entered(self, role: str, state: str) -> None:
        if self._armed_proxy is not None:
            self.fire(self._armed_proxy)

    def fire(self, proxy: "AttackProxy") -> None:
        raise NotImplementedError

    def _emit_fire(self, proxy: "AttackProxy", count: int) -> None:
        """Trace-record one trigger firing (timeline marker for ``repro report``)."""
        if BUS.enabled:
            BUS.emit(
                "proxy.campaign.fire",
                campaign=self.name,
                trigger=str(self.trigger),
                count=count,
                sim_time=round(proxy.sim.now, 6),
            )

    # ------------------------------------------------------------------
    def _resolve_fields(self, proxy: "AttackProxy", fields: Dict[str, object]) -> Dict[str, int]:
        resolved: Dict[str, int] = {}
        for key, value in fields.items():
            if value == RANDOM:
                resolved[key] = proxy.sim.rng.randrange(1 << 32)
            else:
                resolved[key] = int(value)  # type: ignore[arg-type]
        return resolved

    def describe(self) -> str:
        return self.name


class InjectCampaign(InjectionCampaign):
    """Inject ``count`` forged packets of one type.

    The paper's ``inject`` basic attack: "contains a number of parameters
    describing the fields in the packet, its source and destination, and when
    it should be injected."
    """

    name = "inject"

    def __init__(
        self,
        protocol: str,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        packet_type: str,
        trigger: Trigger,
        fields: Optional[Dict[str, object]] = None,
        payload_len: int = 0,
        count: int = 1,
        interval: float = 0.01,
    ):
        super().__init__(trigger)
        self.protocol = protocol
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.packet_type = packet_type
        self.fields = dict(fields or {})
        self.payload_len = payload_len
        self.count = count
        self.interval = interval

    def fire(self, proxy: "AttackProxy") -> None:
        self._emit_fire(proxy, self.count)
        for i in range(self.count):
            packet = craft_packet(
                self.protocol,
                self.src,
                self.dst,
                self.sport,
                self.dport,
                self.packet_type,
                self.payload_len,
                self._resolve_fields(proxy, self.fields),
            )
            proxy.sim.post(i * self.interval, proxy.inject_toward, packet)
            self.fired += 1

    def describe(self) -> str:
        return (
            f"inject {self.count}x {self.packet_type} {self.src}->{self.dst} "
            f"fields={self.fields} on {self.trigger}"
        )


class HitSeqWindowCampaign(InjectionCampaign):
    """Sweep the sequence space at receive-window intervals.

    The paper's ``hitseqwindow``: "injects a whole series of packets with
    their sequence numbers spanning the whole possible sequence range",
    looking for Watson Reset / SYN-Reset style attacks.  ``stride`` should be
    the target's receive window; ``count * stride`` covers the sequence
    space the executor configured for its endpoints.
    """

    name = "hitseqwindow"

    def __init__(
        self,
        protocol: str,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        packet_type: str,
        trigger: Trigger,
        stride: int,
        count: int,
        seq_field: str = "seq",
        fields: Optional[Dict[str, object]] = None,
        payload_len: int = 0,
        interval: float = 0.004,
        space: int = 1 << 32,
    ):
        super().__init__(trigger)
        if stride <= 0 or count <= 0:
            raise ValueError("stride and count must be positive")
        if space <= 0:
            raise ValueError("sequence space must be positive")
        self.protocol = protocol
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.packet_type = packet_type
        self.stride = stride
        self.count = count
        self.seq_field = seq_field
        self.fields = dict(fields or {})
        self.payload_len = payload_len
        self.interval = interval
        #: the sequence space being swept.  The executor scales its
        #: endpoints' ISS space down in lockstep with test duration; the
        #: sweep wraps within the same space so that covering it costs the
        #: same *relative* effort as covering 2^32 did in the paper's
        #: 1-minute tests.
        self.space = space

    def fire(self, proxy: "AttackProxy") -> None:
        self._emit_fire(proxy, self.count)
        base = proxy.sim.rng.randrange(self.space)
        for i in range(self.count):
            fields = self._resolve_fields(proxy, self.fields)
            fields[self.seq_field] = (base + i * self.stride) % self.space
            packet = craft_packet(
                self.protocol,
                self.src,
                self.dst,
                self.sport,
                self.dport,
                self.packet_type,
                self.payload_len,
                fields,
            )
            proxy.sim.post(i * self.interval, proxy.inject_toward, packet)
            self.fired += 1

    def describe(self) -> str:
        return (
            f"hitseqwindow {self.count}x{self.packet_type} stride={self.stride} "
            f"{self.src}->{self.dst} payload={self.payload_len} on {self.trigger}"
        )

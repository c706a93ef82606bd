"""The DCCP connection engine (RFC 4340 semantics, CCID 2 sender).

Key modelling choices, each preserving a behaviour the paper's attacks
exploit:

* **Per-packet sequence numbers.**  Every packet sent — including pure
  acknowledgments — consumes a sequence number (``gss``), so an attacker can
  bump an acknowledgment's sequence number and stay in-window (the In-window
  Acknowledgment Sequence Number Modification attack).
* **Ack-vector substitute.**  Real CCID 2 learns per-packet delivery from
  the Ack Vector option.  Our acknowledgments carry the same information as
  an aggregate delivered-packet counter in the otherwise-unused-after-
  handshake ``service`` field; the sender infers losses by comparing it with
  how many packets it sent below the acknowledged sequence number.
* **No retransmission.**  Lost payload is gone; reliability is the
  application's problem (iperf does not care).  The no-feedback timer is the
  only clock: when acknowledgments stop making progress the window collapses
  to one packet with exponential backoff — DCCP's minimum rate.
* **CLOSE waits for the send queue.**  ``app_close`` defers the CLOSE packet
  until every queued payload packet has been sent, which is what lets the
  Acknowledgment Mung attack hold sockets open almost indefinitely.
* **REQUEST type-check-before-sequence-check.**  Matching RFC 4340
  pseudo-code and Linux 3.13: in REQUEST, any packet other than RESPONSE or
  RESET triggers an immediate reset, with *any* sequence/ack numbers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple, TYPE_CHECKING

from repro.netsim.simulator import Simulator, Timer
from repro.packets.packet import Packet
from repro.packets.dccp import ACK_BEARING_TYPES, TYPE_VALUES, DccpHeader, dccp_packet_type
from repro.dccpstack.ccid2 import Ccid2
from repro.dccpstack.ccid3 import Ccid3Sender, LossIntervalEstimator
from repro.dccpstack.variants import DccpVariant

if TYPE_CHECKING:  # pragma: no cover
    from repro.dccpstack.endpoint import DccpEndpoint

CLOSED = "CLOSED"
LISTEN = "LISTEN"
REQUEST = "REQUEST"
RESPOND = "RESPOND"
PARTOPEN = "PARTOPEN"
OPEN = "OPEN"
CLOSEREQ = "CLOSEREQ"
CLOSING = "CLOSING"
TIMEWAIT = "TIMEWAIT"

DATA_STATES = frozenset({PARTOPEN, OPEN})
SEQ_MASK_48 = (1 << 48) - 1

#: packet types exempt from the ordinary sequence-window test
_RESYNC_TYPES = frozenset({"RESET", "SYNC", "SYNCACK"})


class DccpConnection:
    """One DCCP connection."""

    def __init__(
        self,
        endpoint: "DccpEndpoint",
        local_port: int,
        remote_addr: str,
        remote_port: int,
        variant: DccpVariant,
        app: object = None,
    ):
        self.endpoint = endpoint
        self.sim: Simulator = endpoint.sim
        self.variant = variant
        self.local_addr = endpoint.address
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.app = app
        self.mss = variant.mss

        self.state = CLOSED
        # sequence state (unbounded ints; wire values are 48-bit)
        self.iss = 0
        self.gss = 0  # greatest sequence sent
        self.isr: Optional[int] = None
        self.gsr: Optional[int] = None
        self._sent_any = False
        # delivery accounting (the ack-vector substitute).  CCID 2
        # congestion-controls *data* packets; pure acknowledgments are not
        # counted against the window (RFC 4341 section 5), so the pipe and
        # loss inference track data packets only.
        self.local_received = 0  # any packets received from the peer
        self.local_data_received = 0  # data packets received (ack-vector report)
        self.peer_delivered = 0  # our data packets the peer reports received
        self.lost_total = 0  # our data packets inferred lost
        self.sent_count = 0  # every packet (sequence numbers consumed)
        self.data_sent = 0  # data packets sent
        self._data_seqs: Deque[int] = deque()  # seqs of unaccounted data packets
        self._data_expected = 0  # data seqs at or below the highest ack seen
        # send queue: payload lengths awaiting transmission
        self.send_queue: Deque[int] = deque()
        self.close_requested = False
        self.close_reason: Optional[str] = None
        self.closed_at: Optional[float] = None
        # congestion control and timers.  CCID 2 is window-based; CCID 3
        # (TFRC, an extension beyond the paper's scope) is rate-based with a
        # pacing timer and receiver-side loss-interval estimation.
        self.cc = Ccid2(variant.initial_cwnd_packets)
        self.tfrc: Optional[Ccid3Sender] = None
        self.loss_estimator: Optional[LossIntervalEstimator] = None
        if variant.ccid == "ccid3":
            self.tfrc = Ccid3Sender(variant.mss)
            self.loss_estimator = LossIntervalEstimator()
        self.pacing_timer = Timer(self.sim, self._on_pacing, name="tfrc-pacing")
        self._data_send_times: Dict[int, float] = {}
        self._last_feedback_count = 0
        self._last_feedback_time: Optional[float] = None
        self._rto = variant.rto_initial
        self.no_feedback_timer = Timer(self.sim, self._on_no_feedback, name="no-feedback")
        self.request_timer = Timer(self.sim, self._on_request_timeout, name="request")
        self.partopen_timer = Timer(self.sim, self._on_partopen_timeout, name="partopen")
        self.close_timer = Timer(self.sim, self._on_close_timeout, name="close")
        self.time_wait_timer = Timer(self.sim, self._on_time_wait, name="timewait")
        self._request_retries = 0
        self._close_retries = 0
        self._last_sync_sent = float("-inf")
        self._last_sync_seq: Optional[int] = None
        self._ack_pending = 0
        self._connected_notified = False
        # statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_delivered = 0
        self.bytes_sent = 0
        self.syncs_sent = 0
        self.resets_sent = 0

    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.remote_addr, self.local_port, self.remote_port)

    @property
    def pipe(self) -> int:
        """Estimated *data* packets of ours still in the network."""
        return max(0, self.data_sent - self.peer_delivered - self.lost_total)

    @property
    def queued_packets(self) -> int:
        return len(self.send_queue)

    # ------------------------------------------------------------------
    # sequence-window arithmetic (RFC 4340 section 7.5)
    # ------------------------------------------------------------------
    def _seq_valid(self, seq: int) -> bool:
        if self.gsr is None:
            return True
        w = self.variant.sequence_window
        swl = self.gsr + 1 - w // 4
        swh = self.gsr + (3 * w) // 4
        return swl <= seq <= swh

    def _ack_valid(self, ack: int) -> bool:
        return self.iss <= ack <= self.gss

    def _unwrap48(self, wire: int, reference: int) -> int:
        base = reference - (reference & SEQ_MASK_48)
        candidate = base + (wire & SEQ_MASK_48)
        half = 1 << 47
        if candidate - reference > half:
            candidate -= 1 << 48
        elif reference - candidate > half:
            candidate += 1 << 48
        return candidate

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        if not self._sent_any:
            self._sent_any = True
            self.gss = self.iss
        else:
            self.gss += 1
        return self.gss

    def _transmit(self, packet_type: str, payload_len: int = 0, ack: Optional[int] = None) -> int:
        seq = self._next_seq()
        # ack-vector substitute: report how many peer *data* packets arrived.
        # Under CCID 3 the top 12 bits additionally carry the receiver's
        # loss event rate (scaled to 0..4095) -- the TFRC feedback option.
        if self.loss_estimator is not None and self.variant.ccid == "ccid3":
            loss_scaled = int(self.loss_estimator.loss_event_rate * 4095)
            service = ((loss_scaled & 0xFFF) << 20) | (self.local_data_received & 0xFFFFF)
        else:
            service = self.local_data_received
        # the constructor wraps seq, ack and service to their field widths
        header = DccpHeader(
            sport=self.local_port,
            dport=self.remote_port,
            type=TYPE_VALUES[packet_type],
            seq=seq,
            ack=0 if ack is None else ack,
            service=service,
        )
        self.packets_sent += 1
        self.sent_count += 1
        if payload_len > 0:
            self.data_sent += 1
            self._data_seqs.append(seq)
            if self.tfrc is not None:
                self._data_send_times[seq] = self.sim.now
                if len(self._data_send_times) > 512:
                    self._data_send_times.pop(next(iter(self._data_send_times)))
        self.bytes_sent += payload_len
        self.endpoint.host.send(
            Packet(self.local_addr, self.remote_addr, "dccp", header, payload_len, sent_at=self.sim.now)
        )
        return seq

    def _send_reset(self) -> None:
        self.resets_sent += 1
        self._transmit("RESET", ack=self.gsr if self.gsr is not None else 0)

    def _send_sync(self, offending_seq: int) -> None:
        now = self.sim.now
        if now - self._last_sync_sent < self.variant.sync_min_interval:
            return
        self._last_sync_sent = now
        self.syncs_sent += 1
        self._last_sync_seq = self._transmit("SYNC", ack=offending_seq)

    def _send_ack(self) -> None:
        self._transmit("ACK", ack=self.gsr if self.gsr is not None else 0)

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        if self.state != CLOSED:
            raise RuntimeError(f"open_active in state {self.state}")
        self.iss = self.endpoint.next_iss()
        self.state = REQUEST
        self._transmit("REQUEST")
        self.request_timer.start(self._rto)

    def open_passive(self, request: Packet) -> None:
        header: DccpHeader = request.header  # type: ignore[assignment]
        self.isr = header.seq
        self.gsr = self.isr
        self.local_received = 1
        self.packets_received += 1
        self.iss = self.endpoint.next_iss()
        self.state = RESPOND
        self._transmit("RESPONSE", ack=self.gsr)

    def _on_request_timeout(self) -> None:
        if self.state != REQUEST:
            return
        self._request_retries += 1
        if self._request_retries > self.variant.request_retries:
            self._destroy("connect-timeout")
            return
        self._rto = min(self._rto * 2, self.variant.rto_max)
        self._transmit("REQUEST")
        self.request_timer.start(self._rto)

    def _on_partopen_timeout(self) -> None:
        if self.state != PARTOPEN:
            return
        self._send_ack()
        self.partopen_timer.start(0.2)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def app_send(self, nbytes: int) -> None:
        """Queue application data; it is packetized at one MSS per packet."""
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        if self.close_requested:
            raise RuntimeError("send after close")
        while nbytes > 0:
            chunk = min(self.mss, nbytes)
            self.send_queue.append(chunk)
            nbytes -= chunk
        self._try_send()

    def app_close(self) -> None:
        """Close once the send queue drains (RFC 4340 half of the paper's
        Acknowledgment Mung attack surface)."""
        if self.close_requested or self.state in (CLOSED, TIMEWAIT):
            return
        self.close_requested = True
        self._maybe_send_close()

    def app_abort(self) -> None:
        if self.state in (CLOSED, TIMEWAIT):
            return
        self._send_reset()
        self._destroy("aborted")

    def _maybe_send_close(self) -> None:
        if not self.close_requested or self.state not in (OPEN, PARTOPEN, CLOSEREQ):
            return
        if self.send_queue:
            return  # must drain first
        self.state = CLOSING
        self._transmit("CLOSE", ack=self.gsr if self.gsr is not None else 0)
        self.close_timer.start(self._rto)

    def _on_close_timeout(self) -> None:
        if self.state != CLOSING:
            return
        self._close_retries += 1
        if self._close_retries > 8:
            self._destroy("close-timeout")
            return
        self._transmit("CLOSE", ack=self.gsr if self.gsr is not None else 0)
        self.close_timer.start(min(self._rto * (2 ** self._close_retries), self.variant.rto_max))

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if self.state not in DATA_STATES:
            return
        if self.tfrc is not None:
            # rate-based: the pacing timer drains the queue
            if self.send_queue and not self.pacing_timer.armed:
                self._send_one_paced()
            if not self.send_queue:
                self._maybe_send_close()
                self._notify("on_drained")
            return
        queue = self.send_queue
        cc = self.cc
        ack = self.gsr if self.gsr is not None else 0
        sent = False
        # the pipe without its clamp at zero: CCID 2 keeps cwnd >= 1
        while queue and self.data_sent - self.peer_delivered - self.lost_total < cc.cwnd:
            self._transmit("DATAACK", payload_len=queue.popleft(), ack=ack)
            sent = True
        if sent and not self.no_feedback_timer.armed:
            self.no_feedback_timer.start(self._rto)
        if not queue:
            self._maybe_send_close()
            self._notify("on_drained")

    def _send_one_paced(self) -> None:
        payload = self.send_queue.popleft()
        self._transmit("DATAACK", payload_len=payload, ack=self.gsr if self.gsr is not None else 0)
        if not self.no_feedback_timer.armed:
            self.no_feedback_timer.start(max(4 * self.tfrc.rtt, 4 * self.tfrc.send_interval))
        # always re-arm: the pacing timer IS the rate limit, whether or not
        # the application refills the queue in the meantime
        self.pacing_timer.start(self.tfrc.send_interval)
        if not self.send_queue:
            self._maybe_send_close()
            self._notify("on_drained")

    def _on_pacing(self) -> None:
        if self.state in DATA_STATES and self.send_queue and self.tfrc is not None:
            self._send_one_paced()

    def _on_no_feedback(self) -> None:
        """Acks stopped arriving: presume the flight lost, go to minimum rate."""
        if self.tfrc is not None:
            if self.state in DATA_STATES and (self.send_queue or self.pipe > 0):
                self.tfrc.on_no_feedback()
                self.no_feedback_timer.start(max(4 * self.tfrc.rtt, 4 * self.tfrc.send_interval))
            return
        if self.state not in DATA_STATES or self.pipe == 0:
            return
        self.cc.on_no_feedback()
        self.lost_total = self.data_sent - self.peer_delivered
        self._rto = min(self._rto * 2, self.variant.rto_max)
        self._try_send()
        if self.pipe > 0 or self.send_queue:
            self.no_feedback_timer.start(self._rto)

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        header: DccpHeader = packet.header  # type: ignore[assignment]
        ptype = dccp_packet_type(header)
        state = self.state
        if state == REQUEST:
            self._packet_in_request(header, ptype)
            return
        if state == TIMEWAIT or state == CLOSED:
            return

        gsr = self.gsr
        seq = self._unwrap48(header.seq, header.seq if gsr is None else gsr)
        ack = self._unwrap48(header.ack, self.gss) if ptype in ACK_BEARING_TYPES else None

        if ptype in _RESYNC_TYPES:
            if ptype == "RESET":
                # RESET tears the connection down (after a window check).
                # While CLOSING it is the *normal* second half of the close
                # handshake (RFC 4340: CLOSE is answered with RESET "closed").
                if self._seq_valid(seq):
                    self._enter_teardown("closed" if state == CLOSING else "reset-by-peer")
            # SYNC/SYNCACK recover from window desynchronisation and bypass
            # the ordinary sequence-validity test, but their ack must name a
            # packet we really sent.
            elif ack is not None and self._ack_valid(ack):
                if ptype == "SYNC":
                    if gsr is None or seq > gsr:
                        self.gsr = seq
                    self._transmit("SYNCACK", ack=seq)
                else:
                    self.gsr = max(gsr or seq, seq)
            return

        # ordinary packets: sequence window first...
        if not self._seq_valid(seq):
            self._send_sync(seq)
            return
        # ...then acknowledgment validity: a packet acknowledging data we
        # never sent is dropped with a SYNC (the paper's in-window
        # acknowledgment sequence-number modification attack rides on this).
        if ack is not None and not self._ack_valid(ack):
            self._send_sync(seq)
            return

        if gsr is None or seq > gsr:
            self.gsr = seq
        self.local_received += 1

        if ptype in ("DATA", "DATAACK") and packet.payload_len > 0:
            self.local_data_received += 1
            if self.loss_estimator is not None and self.isr is not None:
                self.loss_estimator.on_packet(seq - self.isr)
            self._process_payload(packet.payload_len)
        if ack is not None:
            self._process_ack_info(ack, header.service)

        if self.state == RESPOND and ptype in ("ACK", "DATAACK"):
            self.state = OPEN
            self._notify_connected()
        elif self.state == PARTOPEN:
            self.partopen_timer.stop()
            self.state = OPEN
            self._try_send()

        if ptype == "CLOSE":
            self._send_reset()
            self._enter_teardown("closed")
            return
        if ptype == "CLOSEREQ":
            self._notify("on_close_requested")
            self.close_requested = True
            self._maybe_send_close()
            return

    # ------------------------------------------------------------------
    def _packet_in_request(self, header: DccpHeader, ptype: str) -> None:
        """REQUEST-state handling; the packet-type check comes first when
        ``variant.request_type_check_first`` (RFC 4340 pseudo-code, Linux)."""
        ack = self._unwrap48(header.ack, self.gss) if ptype in ACK_BEARING_TYPES else None
        if not self.variant.request_type_check_first:
            # hypothetical fixed implementation: validate the ack first
            if ack is None or not self._ack_valid(ack):
                return
        if ptype == "RESPONSE":
            if ack is not None and ack == self.iss:
                self.request_timer.stop()
                self.isr = header.seq
                self.gsr = self._unwrap48(header.seq, self.isr)
                self.local_received += 1
                self.state = PARTOPEN
                self._send_ack()
                self.partopen_timer.start(0.2)
                # data may flow in PARTOPEN (RFC 4340 section 8.1.5)
                self._notify_connected()
                self._try_send()
            return
        if ptype == "RESET":
            self._destroy("reset-by-peer")
            return
        # any other packet type resets the connection -- with *any* sequence
        # and acknowledgment numbers when the type check runs first
        self._send_reset()
        self._destroy("request-state-reset")

    # ------------------------------------------------------------------
    def _process_payload(self, payload_len: int) -> None:
        if payload_len <= 0:
            return
        self.bytes_delivered += payload_len
        self._notify("on_data", payload_len)
        self._ack_pending += 1
        # Ack Ratio 2 (RFC 4340 default) for CCID 2; TFRC receivers must
        # feed back at least once per RTT even at very low rates, so CCID 3
        # acknowledges every data packet
        ack_ratio = 1 if self.variant.ccid == "ccid3" else 2
        if self._ack_pending >= ack_ratio:
            self._ack_pending = 0
            self._send_ack()

    def _process_ack_info(self, ack: int, delivered_report: int) -> None:
        """Congestion feedback from the ack-vector substitute."""
        if self.tfrc is not None:
            self._process_tfrc_feedback(ack, delivered_report)
            return
        newly = delivered_report - self.peer_delivered
        if newly > 0:
            self.peer_delivered = delivered_report
            self.cc.on_ack_progress(newly)
            self._rto = self.variant.rto_initial
            if self.data_sent - self.peer_delivered - self.lost_total > 0 or self.send_queue:
                self.no_feedback_timer.start(self._rto)
            else:
                self.no_feedback_timer.stop()
        # loss inference: data packets at or below `ack` the peer never saw
        while self._data_seqs and self._data_seqs[0] <= ack:
            self._data_seqs.popleft()
            self._data_expected += 1
        inferred_lost = self._data_expected - delivered_report
        if inferred_lost > self.lost_total:
            self.lost_total = inferred_lost
            self.cc.on_loss(self.data_sent - 1, self._data_expected - 1)
        self._try_send()

    def _process_tfrc_feedback(self, ack: int, service_field: int) -> None:
        """Decode TFRC feedback: loss event rate + received-packet count."""
        loss_scaled = (service_field >> 20) & 0xFFF
        received = service_field & 0xFFFFF
        now = self.sim.now
        newly = received - (self.peer_delivered & 0xFFFFF)
        if newly < 0:  # 20-bit wrap
            newly += 1 << 20
        self.peer_delivered += max(0, newly)
        x_recv = 0.0
        if self._last_feedback_time is not None and now > self._last_feedback_time:
            x_recv = max(0, newly) * self.tfrc.s / (now - self._last_feedback_time)
        rtt_sample = None
        sent_at = self._data_send_times.pop(ack, None)
        if sent_at is not None:
            rtt_sample = now - sent_at
        if newly > 0:
            # only delivery-bearing feedback drives the rate; zero-delta
            # acknowledgments (handshake echoes, SYNC traffic) would
            # otherwise report X_recv = 0 and clamp the rate to the floor
            self._last_feedback_time = now
            self.tfrc.on_feedback(x_recv, loss_scaled / 4095.0, rtt_sample)
        self.no_feedback_timer.start(max(4 * self.tfrc.rtt, 4 * self.tfrc.send_interval))
        self._try_send()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _enter_teardown(self, reason: str) -> None:
        if self.state == CLOSING:
            self.state = TIMEWAIT
            self.close_timer.stop()
            self.no_feedback_timer.stop()
            self.time_wait_timer.start(self.variant.time_wait_duration)
            self._notify("on_closed", reason)
            return
        self._destroy(reason)

    def _on_time_wait(self) -> None:
        self.state = CLOSED
        self.close_reason = self.close_reason or "closed"
        self.closed_at = self.sim.now
        self.endpoint.connection_closed(self)

    def _destroy(self, reason: str) -> None:
        if self.state == CLOSED and self.close_reason is not None:
            return
        was_reset = "reset" in reason
        self.state = CLOSED
        self.close_reason = reason
        self.closed_at = self.sim.now
        for timer in (
            self.no_feedback_timer,
            self.request_timer,
            self.partopen_timer,
            self.close_timer,
            self.time_wait_timer,
            self.pacing_timer,
        ):
            timer.stop()
        self.endpoint.connection_closed(self)
        if was_reset:
            self._notify("on_reset")
        self._notify("on_closed", reason)

    # ------------------------------------------------------------------
    def _notify_connected(self) -> None:
        if not self._connected_notified:
            self._connected_notified = True
            self._notify("on_connected")

    def _notify(self, callback: str, *args: object) -> None:
        if self.app is None:
            return
        fn = getattr(self.app, callback, None)
        if fn is not None:
            fn(self, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DccpConnection {self.local_addr}:{self.local_port}->"
            f"{self.remote_addr}:{self.remote_port} {self.state} "
            f"queue={len(self.send_queue)} pipe={self.pipe}>"
        )

"""The TCP connection engine: one transmission control block + state machine.

Implements the full RFC 793 lifecycle with reliability, flow control and
pluggable congestion control, and consults the active
:class:`~repro.tcpstack.variants.TcpVariant` wherever real implementations
diverge (invalid flag combinations, CLOSE_WAIT retention, duplicate-ACK
response, in-window SYN/RST semantics).

Application data is abstract: ``app_send(n)`` queues *n* bytes of stream; the
engine segments, sequences, retransmits, and delivers byte counts to the
application object.  Application callbacks (all optional, dispatched by
name): ``on_connected``, ``on_data(nbytes)``, ``on_acked``,
``on_remote_close``, ``on_closed(reason)``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.netsim.simulator import Simulator, Timer
from repro.packets.packet import Packet
from repro.packets.tcp import ACK, FIN, FLAG_BITS, PSH, RST, SYN, TcpHeader, VALID_FLAG_VALUES
from repro.tcpstack.congestion import make_congestion_control
from repro.tcpstack.rtt import RttEstimator
from repro.tcpstack.seq import unwrap, seq_in_window, segment_acceptable
from repro.tcpstack.variants import (
    CLOSE_WAIT_ABORT,
    CLOSE_WAIT_RETAIN,
    INVALID_FLAGS_IGNORE,
    INVALID_FLAGS_INTERPRET,
    INVALID_FLAGS_RST_PRIORITY,
    TcpVariant,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcpstack.endpoint import TcpEndpoint

# state names match the dot spec so the tracker and the stack agree
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

SYNCHRONIZED_STATES = frozenset(
    {ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT, CLOSING, LAST_ACK, TIME_WAIT}
)
DATA_SEND_STATES = frozenset({ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, CLOSING, LAST_ACK})


class TcpConnection:
    """One TCP connection (the TCB plus its behaviour)."""

    def __init__(
        self,
        endpoint: "TcpEndpoint",
        local_port: int,
        remote_addr: str,
        remote_port: int,
        variant: TcpVariant,
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
        # send side
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0  # highest sequence ever sent (for post-rewind ACK validity)
        self.send_limit = 0  # app bytes queued so far (stream octets)
        self.peer_window = variant.mss  # until first real window arrives
        self._fin_queued = False
        self._fin_sent = False
        self._send_times: Dict[int, float] = {}  # end_seq -> send time (Karn-clean)
        self._push_points: list = []  # seqs at app-write boundaries -> PSH flags
        self._dupacks = 0
        self._retries = 0
        self._syn_retries = 0
        # receive side
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_wnd = variant.receive_window
        self.peer_wscale = 0  # learned from the peer's SYN/SYN+ACK
        self._ooo: list = []  # sorted disjoint [start, end) intervals
        # app-visible lifecycle
        self.app_closed = False  # app called close()
        self.app_gone = False  # process exited; data gets RSTs
        self.close_reason: Optional[str] = None
        self.opened_at = self.sim.now
        self.closed_at: Optional[float] = None
        # congestion control / timers
        self.cc = make_congestion_control(variant.congestion, self.mss, variant.initial_cwnd_segments)
        self.rtt = RttEstimator(variant.rto_initial, variant.rto_min, variant.rto_max)
        self.rto_timer = Timer(self.sim, self._on_rto, name="rto")
        self.persist_timer = Timer(self.sim, self._on_persist, name="persist")
        self._persist_interval = variant.rto_initial
        self.time_wait_timer = Timer(self.sim, self._on_time_wait_expired, name="time-wait")
        self.zero_window_probes = 0
        # statistics
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.retransmissions = 0
        self.invalid_flag_packets = 0
        self.resets_sent = 0

    # ------------------------------------------------------------------
    # identity / bookkeeping
    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.remote_addr, self.local_port, self.remote_port)

    # The stream's data occupies [iss + 1, iss + 1 + send_limit); the
    # per-segment paths below compute these bounds from the ints inline.
    @property
    def data_end_seq(self) -> int:
        return self.iss + 1 + self.send_limit

    @property
    def unacked_bytes(self) -> int:
        return max(0, self.snd_nxt - self.snd_una)

    @property
    def unsent_bytes(self) -> int:
        start = self.iss + 1
        return max(0, start + self.send_limit - max(self.snd_nxt, start))

    @property
    def fin_acked(self) -> bool:
        return self._fin_sent and self.snd_una > self.iss + 1 + self.send_limit

    @property
    def advertised_window(self) -> int:
        """Window field value to put on the wire (after scaling)."""
        buffered = sum(end - start for start, end in self._ooo)
        avail = max(0, self.rcv_wnd - buffered)
        return min(0xFFFF, avail >> self.variant.window_scale)

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Client connect(): send SYN, enter SYN_SENT."""
        if self.state != CLOSED:
            raise RuntimeError(f"open_active in state {self.state}")
        self.iss = self.endpoint.next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.snd_max = self.snd_nxt
        self.state = SYN_SENT
        self._send_syn()

    def open_passive(self, syn_packet: Packet) -> None:
        """Server side: a SYN arrived for a listening port."""
        header: TcpHeader = syn_packet.header  # type: ignore[assignment]
        self.irs = header.seq
        self.rcv_nxt = header.seq + 1
        self.peer_wscale = header.wscale_opt
        if header.mss_opt:
            self.mss = min(self.mss, header.mss_opt)
        self.iss = self.endpoint.next_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss + 1
        self.snd_max = self.snd_nxt
        self.state = SYN_RCVD
        self._send_flags(SYN | ACK, seq=self.iss)
        self.rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def app_send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application stream for transmission."""
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        if self.app_closed or self._fin_queued:
            raise RuntimeError("send after close")
        self.send_limit += nbytes
        # real stacks set PSH on the segment completing an application
        # write; this is what makes PSH+ACK packets "occur only
        # occasionally in the data stream" as the paper relies on
        if nbytes > 0:
            self._push_points.append(self.iss + 1 + self.send_limit)
        if self.state in DATA_SEND_STATES:
            self._flush()

    def app_close(self) -> None:
        """Orderly close: FIN after all queued data is transmitted."""
        if self.app_closed or self.state in (CLOSED, TIME_WAIT):
            return
        self.app_closed = True
        if self.state == SYN_SENT:
            self._destroy("closed-before-established")
            return
        if (
            self.state == CLOSE_WAIT
            and self.variant.close_wait_policy == CLOSE_WAIT_ABORT
            and (self.unacked_bytes > 0 or self.unsent_bytes > 0)
        ):
            # Windows-style: don't linger in CLOSE_WAIT behind undeliverable
            # data; abort the connection and free the socket.
            self._send_rst(seq=self.snd_nxt)
            self._destroy("close-wait-abort")
            return
        self._fin_queued = True
        self._flush()

    def app_exit(self) -> None:
        """The owning process exits mid-transfer (wget killed).

        Linux sends a FIN and thereafter answers any data for the dead
        process with RST — the precondition for the CLOSE_WAIT resource
        exhaustion attack when those RSTs are dropped.
        """
        if self.state in (CLOSED, TIME_WAIT):
            return
        self.app_closed = True
        self.app_gone = True
        if self.variant.exit_sends_fin_then_rst:
            self._fin_queued = True
            self._flush()
        else:
            self._send_rst(seq=self.snd_nxt)
            self._destroy("exit-abort")

    def app_abort(self) -> None:
        """SO_LINGER-style abortive close: RST immediately."""
        if self.state in (CLOSED, TIME_WAIT):
            return
        self._send_rst(seq=self.snd_nxt)
        self._destroy("aborted")

    # ------------------------------------------------------------------
    # segment transmission
    # ------------------------------------------------------------------
    def _header(self, seq: int, flags: int, ack: int = 0) -> TcpHeader:
        """One outgoing header; the constructor wraps ``seq``/``ack`` to 32 bits."""
        window_scale = self.variant.window_scale
        if self._ooo:
            window = self.advertised_window
        else:  # nothing buffered out of order: the sum is zero
            window = min(0xFFFF, max(0, self.rcv_wnd) >> window_scale)
        return TcpHeader(
            sport=self.local_port,
            dport=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            mss_opt=self.mss,
            wscale_opt=window_scale,
        )

    def _transmit(self, header: TcpHeader, payload_len: int = 0) -> None:
        self.segments_sent += 1
        self.bytes_sent += payload_len
        packet = Packet(
            self.local_addr, self.remote_addr, "tcp", header, payload_len, sent_at=self.sim.now
        )
        self.endpoint.host.send(packet)

    def _send_syn(self) -> None:
        self._transmit(self._header(self.iss, SYN))
        self.rto_timer.start(self.rtt.rto)

    def _send_flags(self, flags: int, seq: Optional[int] = None) -> None:
        """A segment without payload; it acknowledges ``rcv_nxt`` when
        ``flags`` carries ACK."""
        ack = self.rcv_nxt if flags & ACK else 0
        self._transmit(self._header(self.snd_nxt if seq is None else seq, flags, ack))

    def _send_ack(self) -> None:
        self._send_flags(ACK)

    def _send_rst(self, seq: int) -> None:
        self.resets_sent += 1
        self._transmit(self._header(seq, RST))

    def _send_data_segment(self, seq: int, length: int, retransmit: bool = False) -> None:
        flags = ACK
        end = seq + length
        if end >= self.iss + 1 + self.send_limit:
            flags = PSH | ACK
        else:
            push_points = self._push_points
            while push_points and push_points[0] < seq:
                push_points.pop(0)
            if push_points and push_points[0] <= end:
                flags = PSH | ACK
                while push_points and push_points[0] <= end:
                    push_points.pop(0)
        self._transmit(self._header(seq, flags, self.rcv_nxt), payload_len=length)
        if retransmit:
            self.retransmissions += 1
            self._send_times.pop(end, None)
        else:
            self._send_times[end] = self.sim.now

    def _send_fin_segment(self) -> None:
        self._send_flags(FIN | ACK)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Send whatever the congestion and flow-control windows allow."""
        if self.state not in DATA_SEND_STATES:
            return
        window = min(self.cc.cwnd, max(self.peer_window, 0))
        mss = self.mss
        progressed = False
        while True:
            snd_nxt = self.snd_nxt
            end = self.iss + 1 + self.send_limit
            if snd_nxt < end:
                length = min(mss, end - snd_nxt)
                if window - (snd_nxt - self.snd_una) < length:
                    break
                self._send_data_segment(snd_nxt, length)
                self.snd_nxt = snd_nxt = snd_nxt + length
                if snd_nxt > self.snd_max:
                    self.snd_max = snd_nxt
                progressed = True
                continue
            if self._fin_queued and not self._fin_sent and snd_nxt == end:
                self._send_fin_segment()
                self._fin_sent = True
                self.snd_nxt += 1
                self.snd_max = max(self.snd_max, self.snd_nxt)
                if self.state == ESTABLISHED or self.state == SYN_RCVD:
                    self.state = FIN_WAIT_1
                elif self.state == CLOSE_WAIT:
                    self.state = LAST_ACK
                progressed = True
            break
        in_flight = self.snd_nxt - self.snd_una
        if progressed and in_flight > 0 and not self.rto_timer.armed:
            self.rto_timer.start(self.rtt.rto)
        # zero-window persist: with data pending, nothing in flight, and the
        # peer advertising no window, probe so a window update (or the reset
        # of a dead peer) can reach us -- otherwise the connection deadlocks
        if (
            self.peer_window <= 0
            and in_flight <= 0
            and (self.unsent_bytes > 0 or (self._fin_queued and not self._fin_sent))
            and not self.persist_timer.armed
        ):
            self._persist_interval = self.rtt.rto
            self.persist_timer.start(self._persist_interval)

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------
    def _retransmit_head(self) -> None:
        """Retransmit the segment starting at snd_una (go-back-N head)."""
        if self.snd_una < self.data_end_seq:
            length = min(self.mss, self.data_end_seq - self.snd_una)
            self._send_data_segment(self.snd_una, length, retransmit=True)
        elif self._fin_sent and not self.fin_acked:
            self.retransmissions += 1
            self._send_fin_segment()
        elif self.state == SYN_RCVD:
            self._send_flags(SYN | ACK, seq=self.iss)

    def _on_rto(self) -> None:
        if self.state == SYN_SENT:
            self._syn_retries += 1
            if self._syn_retries > self.variant.syn_retries:
                self._destroy("connect-timeout")
                return
            self.rtt.backoff()
            self._send_syn()
            return
        if self.snd_una >= self.snd_nxt:
            return  # everything acked; stale timer
        self._retries += 1
        if self._retries > self.variant.data_retries:
            self._send_rst(seq=self.snd_nxt)
            self._destroy("retransmission-limit")
            return
        self.cc.on_timeout()
        self.rtt.backoff()
        self._dupacks = 0
        self._send_times.clear()
        if self.snd_una < self.data_end_seq:
            # go-back-N: rewind to the cumulative ACK point and resend from
            # there as the window reopens (we have no SACK, so every hole
            # after the first can only be filled by resending sequentially).
            # The head retransmission itself bypasses the peer window, like
            # real stacks do (the data was in-window when first sent).
            if self._fin_sent and not self.fin_acked:
                self._fin_sent = False
            length = min(self.mss, self.data_end_seq - self.snd_una)
            self._send_data_segment(self.snd_una, length, retransmit=True)
            self.snd_nxt = self.snd_una + length
        else:
            self._retransmit_head()
        self.rto_timer.start(self.rtt.rto)

    def _on_persist(self) -> None:
        """Zero-window probe (RFC 1122 4.2.2.17): one byte past the edge."""
        if self.state not in DATA_SEND_STATES:
            return
        if self.peer_window > 0 or self.unacked_bytes > 0:
            return
        if self.unsent_bytes > 0:
            self.zero_window_probes += 1
            self._send_data_segment(self.snd_nxt, 1)
            self.snd_nxt += 1
            self.snd_max = max(self.snd_max, self.snd_nxt)
        elif self._fin_queued and not self._fin_sent:
            # only the FIN is pending: push it through the closed window
            self._send_fin_segment()
            self._fin_sent = True
            self.snd_nxt += 1
            self.snd_max = max(self.snd_max, self.snd_nxt)
            if self.state in (ESTABLISHED, SYN_RCVD):
                self.state = FIN_WAIT_1
            elif self.state == CLOSE_WAIT:
                self.state = LAST_ACK
            return
        else:
            return
        self._persist_interval = min(self._persist_interval * 2, self.variant.rto_max)
        self.persist_timer.start(self._persist_interval)

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        self.segments_received += 1
        header: TcpHeader = packet.header  # type: ignore[assignment]
        flags = header.flags
        valid = (flags & FLAG_BITS) in VALID_FLAG_VALUES

        if not valid:
            self.invalid_flag_packets += 1
            policy = self.variant.invalid_flags_policy
            if policy == INVALID_FLAGS_IGNORE:
                return
            if policy == INVALID_FLAGS_RST_PRIORITY:
                if flags & RST:
                    self._process_rst(header, packet)
                return
            # INVALID_FLAGS_INTERPRET falls through to normal processing;
            # _interpret_fallback handles the "no flags at all" case.

        if self.state == SYN_SENT:
            self._packet_in_syn_sent(header, flags)
            return
        if self.state == TIME_WAIT:
            # retransmitted FIN from the peer re-ACKs; everything else ignored
            if flags & FIN:
                self._send_ack()
            return

        responded = self._packet_in_sync_state(header, packet, flags)
        if (
            not responded
            and not valid
            and self.variant.invalid_flags_policy == INVALID_FLAGS_INTERPRET
            and self.state in SYNCHRONIZED_STATES
        ):
            # Linux 3.0.0 observed behaviour: best-effort interpretation ends
            # in an (incorrect) duplicate ACK even for flagless packets.
            self._send_ack()

    # ------------------------------------------------------------------
    def _packet_in_syn_sent(self, header: TcpHeader, flags: int) -> None:
        has_syn = flags & SYN
        has_ack = flags & ACK
        has_rst = flags & RST
        if has_ack:
            ack = unwrap(header.ack, self.snd_nxt)
            if ack != self.snd_nxt:  # unacceptable ACK
                if not has_rst:
                    self._send_rst(seq=ack)
                return
        if has_rst:
            if has_ack:
                self._destroy("reset-by-peer")
            return
        if has_syn and has_ack:
            self.irs = header.seq
            self.rcv_nxt = header.seq + 1
            self.snd_una = self.snd_nxt
            self.peer_wscale = header.wscale_opt
            self.peer_window = header.window << self.peer_wscale
            if header.mss_opt:
                self.mss = min(self.mss, header.mss_opt)
                self.cc.mss = self.mss
            self.state = ESTABLISHED
            self.rto_timer.stop()
            self._retries = 0
            self._send_ack()
            self._notify("on_connected")
            self._flush()
        elif has_syn:
            # simultaneous open
            self.irs = header.seq
            self.rcv_nxt = header.seq + 1
            self.state = SYN_RCVD
            self._send_flags(SYN | ACK, seq=self.iss)

    # ------------------------------------------------------------------
    def _packet_in_sync_state(self, header: TcpHeader, packet: Packet, flags: int) -> bool:
        """Process a segment in a synchronized (or SYN_RCVD) state.

        Returns True if we sent anything in response (used by the
        invalid-flags interpretation fallback).
        """
        seg_len = packet.payload_len
        seg_seq = unwrap(header.seq, self.rcv_nxt)
        has_fin = flags & FIN

        # RST: Watson-style in-window check
        if flags & RST:
            self._process_rst(header, packet)
            return True

        # sequence acceptability (skip for bare ACK probes at exact edge)
        if not segment_acceptable(seg_seq, seg_len + (1 if has_fin else 0), self.rcv_nxt, self.rcv_wnd):
            self._send_ack()  # challenge ACK
            return True

        # in-window SYN on a synchronized connection: RFC 793 reset
        if flags & SYN and self.state in SYNCHRONIZED_STATES and self.variant.syn_in_window_resets:
            self._send_rst(seq=self.snd_nxt)
            self._destroy("syn-in-window")
            return True

        responded = False
        if flags & ACK:
            responded = self._process_ack(header) or responded

        if seg_len > 0:
            responded = self._process_payload(seg_seq, seg_len, header) or responded

        if has_fin:
            responded = self._process_fin(seg_seq + seg_len) or responded

        return responded

    # ------------------------------------------------------------------
    def _process_rst(self, header: TcpHeader, packet: Packet) -> None:
        if not self.variant.rst_in_window_resets:
            # strict check: only exact rcv_nxt match resets
            if unwrap(header.seq, self.rcv_nxt) != self.rcv_nxt:
                return
            self._destroy("reset-by-peer")
            return
        seg_seq = unwrap(header.seq, self.rcv_nxt)
        if seq_in_window(seg_seq, self.rcv_nxt, max(self.rcv_wnd, 1)):
            self._destroy("reset-by-peer")

    # ------------------------------------------------------------------
    def _process_ack(self, header: TcpHeader) -> bool:
        ack = unwrap(header.ack, self.snd_una)
        if ack > self.snd_max:
            # acks data we never sent (e.g. proxy-mangled): re-assert our state
            self._send_ack()
            return True
        if ack > self.snd_nxt:
            # ACK for data sent before a go-back-N rewind: skip ahead
            self.snd_nxt = ack
        if self.state == SYN_RCVD and ack >= self.iss + 1:
            self.state = ESTABLISHED
            self.rto_timer.stop()
            self._retries = 0
            self._notify("on_connected")
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            was_recovering = self.cc.in_fast_recovery
            self.snd_una = ack
            self.peer_window = header.window << self.peer_wscale
            if self.peer_window > 0:
                self.persist_timer.stop()
            self._retries = 0
            self._dupacks = 0
            self._sample_rtt(ack)
            self.cc.on_ack(newly_acked, self.snd_una)
            if was_recovering and self.cc.in_fast_recovery:
                # New Reno partial ACK: the next hole starts at the new
                # snd_una; retransmit it immediately.
                self._retransmit_head()
            if self.snd_nxt > self.snd_una:
                self.rto_timer.start(self.rtt.rto)
            else:
                self.rto_timer.stop()
            if self._fin_sent:
                self._handle_fin_acked()
            self._notify("on_acked")
            self._flush()
            return False
        # ack == snd_una (or older): potential duplicate
        if ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._dupacks += 1
            if self._dupacks == 3 and self.cc.supports_fast_retransmit:
                self.cc.on_fast_retransmit(self.snd_nxt, self.sim.now)
                self._retransmit_head()
                self.rto_timer.start(self.rtt.rto)
            else:
                self.cc.on_duplicate_ack()
                self._flush()
        else:
            # pure window update: reopen transmission if the peer's window
            # grew (and disarm the persist probe)
            new_window = header.window << self.peer_wscale
            if new_window > self.peer_window:
                self.peer_window = new_window
                if new_window > 0:
                    self.persist_timer.stop()
                self._flush()
        return False

    def _sample_rtt(self, ack: int) -> None:
        # Keys enter in increasing order: only an RTO rewinds snd_nxt, and it
        # clears the map first.  So the acked keys are a prefix.
        send_times = self._send_times
        exact = None
        while send_times:
            end_seq = next(iter(send_times))
            if end_seq > ack:
                break
            sent_at = send_times.pop(end_seq)
            if end_seq == ack:
                exact = sent_at
        # Sample only the segment that directly produced this ACK, and never
        # during loss recovery: a cumulative ACK released after a hole fills
        # reflects hole-repair time, not path RTT.
        if exact is not None and not self.cc.in_fast_recovery:
            self.rtt.sample(self.sim.now - exact)

    def _handle_fin_acked(self) -> None:
        if not self.fin_acked:
            return
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._destroy("closed")

    # ------------------------------------------------------------------
    def _process_payload(self, seg_seq: int, seg_len: int, header: TcpHeader) -> bool:
        if self.app_gone:
            # data for a dead process: answer with RST (Linux behaviour)
            self._send_rst(seq=unwrap(header.ack, self.snd_nxt))
            return True
        seg_end = seg_seq + seg_len
        window_end = self.rcv_nxt + self.rcv_wnd
        seg_end = min(seg_end, window_end)
        if seg_seq <= self.rcv_nxt < seg_end:
            old = self.rcv_nxt
            self.rcv_nxt = seg_end
            self._drain_ooo()
            delivered = self.rcv_nxt - old
            self.bytes_delivered += delivered
            self._notify("on_data", delivered)
        elif seg_seq > self.rcv_nxt:
            self._insert_ooo(seg_seq, seg_end)
        # old or duplicate data still gets an ACK (that's the dupack path)
        self._send_ack()
        return True

    def _insert_ooo(self, start: int, end: int) -> None:
        if start >= end:
            return
        intervals = self._ooo + [(start, end)]
        intervals.sort()
        merged = [intervals[0]]
        for s, e in intervals[1:]:
            last_s, last_e = merged[-1]
            if s <= last_e:
                merged[-1] = (last_s, max(last_e, e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _drain_ooo(self) -> None:
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            start, end = self._ooo.pop(0)
            if end > self.rcv_nxt:
                self.rcv_nxt = end

    # ------------------------------------------------------------------
    def _process_fin(self, fin_seq: int) -> bool:
        if fin_seq != self.rcv_nxt:
            return False  # out-of-order FIN; peer will retransmit
        self.rcv_nxt += 1
        self._notify("on_remote_close")
        if self.state in (ESTABLISHED, SYN_RCVD):
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            if self.fin_acked:
                self._send_ack()
                self._enter_time_wait()
                return True
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._send_ack()
            self._enter_time_wait()
            return True
        self._send_ack()
        return True

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self.rto_timer.stop()
        self.time_wait_timer.start(self.variant.time_wait_duration)

    def _on_time_wait_expired(self) -> None:
        self._destroy("closed")

    def _destroy(self, reason: str) -> None:
        if self.state == CLOSED and self.close_reason is not None:
            return
        was_reset = reason in ("reset-by-peer", "syn-in-window")
        self.state = CLOSED
        self.close_reason = reason
        self.closed_at = self.sim.now
        self.rto_timer.stop()
        self.persist_timer.stop()
        self.time_wait_timer.stop()
        self.endpoint.connection_closed(self)
        if was_reset:
            self._notify("on_reset")
        self._notify("on_closed", reason)

    # ------------------------------------------------------------------
    def _notify(self, callback: str, *args: object) -> None:
        if self.app is None:
            return
        fn = getattr(self.app, callback, None)
        if fn is not None:
            fn(self, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.local_addr}:{self.local_port}->"
            f"{self.remote_addr}:{self.remote_port} {self.state} "
            f"una={self.snd_una - self.iss} nxt={self.snd_nxt - self.iss}>"
        )

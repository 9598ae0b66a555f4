"""One TCP endpoint: the send path, the handshake and ACK processing."""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addresses import IPv4Address
from repro.net.cc import cc_algorithm
from repro.net.packet import ACK, FIN, RST, SYN, TcpSegment
from repro.net.tcp.receiver import Receiver
from repro.net.tcp.recovery import LossRecovery
from repro.net.tcp.timer import INITIAL_RTO, RetransmitTimer
from repro.sim.engine import Event, Simulator


class ConnectionReset(Exception):
    """Raised to waiters when the peer resets or the connection aborts."""


class TcpConnection(Receiver, LossRecovery, RetransmitTimer):
    """One endpoint of a TCP connection."""

    def __init__(self, layer, local_port: int, remote_ip: IPv4Address,
                 remote_port: int, cc: str) -> None:
        self.layer = layer
        self.sim: Simulator = layer.stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.key = (local_port, remote_ip, remote_port)
        self.mss = layer.mss
        self.send_buf_capacity = layer.send_buf

        self.state = "CLOSED"
        self.established_event: Event = Event(self.sim)

        # --- sender state (byte sequence space; ISS = 0 for clarity) ---
        self.snd_una = 0          # oldest unacknowledged byte
        self.snd_nxt = 0          # next byte to send
        self.snd_max = 0          # highest byte ever sent (for ack sanity)
        self.snd_buffered = 0     # bytes accepted from app, not yet sent
        self.snd_markers: list[tuple[int, Any]] = []  # (end_offset, obj)
        self._app_write_total = 0  # absolute offset of last byte accepted
        self.snd_wnd = layer.recv_buf  # peer's advertised window
        # (bytes, event, obj) of writes waiting for send-buffer room
        self._send_waiters: list[tuple[int, Event, Any]] = []
        self.fin_sent = False
        self.fin_seq: Optional[int] = None
        Receiver.__init__(self, layer.recv_buf)
        LossRecovery.__init__(self)
        RetransmitTimer.__init__(self)

        # --- congestion control (strategy plane, repro.net.cc) ---
        self.cc = cc
        self.cc_algo = cc_algorithm(cc, self)
        self._cc_series: Optional[tuple] = None

        self.bytes_acked_total = 0
        self._closed_for_send = False
        self.reset = False
        # The sender is one fast-lane callback, on the calendar at most
        # once: set while a drain is scheduled or pacing, so kicks in
        # between are absorbed.
        self._drain_cb = self._drain  # bind once, not per kick
        self._drain_pending = True
        self.sim.call_in(0.0, self._drain_cb)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enable_cc_trace(self, label: Optional[str] = None) -> None:
        """Record per-flow cwnd/ssthresh/srtt time series into the
        simulator's metrics registry (``repro.obs``) on every cumulative
        ACK, under ``<stack>.tcp.<label>.{cwnd,ssthresh,srtt_ms}``
        (label defaults to the local port)."""
        m = self.sim.metrics
        base = f"{self.layer.stack.name}.tcp.{label or self.local_port}"
        self._cc_series = (m.series(f"{base}.cwnd"),
                           m.series(f"{base}.ssthresh"),
                           m.series(f"{base}.srtt_ms"))

    def wait_established(self) -> Event:
        return self.established_event

    def send(self, nbytes: int, obj: Any = None) -> Event:
        """Queue ``nbytes`` for transmission; the event fires once the bytes
        fit in the send buffer (backpressure). ``obj`` surfaces at the
        receiver when the last of these bytes is delivered in order."""
        ev = Event(self.sim)
        if self._closed_for_send or self.reset:
            ev.fail(ConnectionReset("send on closed/reset connection"))
            return ev
        if nbytes < 0:
            raise ValueError("negative send size")
        self._send_waiters.append((nbytes, ev, obj))
        self._admit_waiters()
        return ev

    def close(self) -> None:
        """Half-close: FIN after all queued data; receiving still works."""
        if self._closed_for_send:
            return
        self._closed_for_send = True
        self._kick_send()

    def abort(self) -> None:
        """Send RST and tear down immediately."""
        if self.state not in ("CLOSED",):
            self._emit(TcpSegment(self.local_port, self.remote_port,
                                  self.snd_nxt, self.rcv_nxt, RST | ACK, 0))
        self._do_reset()

    # ------------------------------------------------------------------
    # Sender internals
    # ------------------------------------------------------------------
    def _accept_bytes(self, nbytes: int, obj: Any) -> None:
        self._app_write_total += nbytes
        self.snd_buffered += nbytes
        if obj is not None:
            self.snd_markers.append((self._app_write_total, obj))
        self._kick_send()

    def _kick_send(self) -> None:
        if not self._drain_pending:
            self._drain_pending = True
            self.sim.call_in(0.0, self._drain_cb)

    def _effective_window(self) -> int:
        return min(self.cc_algo.cwnd, self.snd_wnd)

    def _drain(self) -> None:
        """Send what the windows allow (a fast-lane callback)."""
        if self.reset:
            return  # still pending: a reset connection never drains again
        burst = 0
        while self._pump():
            burst += 1
            if burst >= 10 and self.srtt:
                # Micro-burst pacing: spread window-sized sends over
                # a fraction of the RTT instead of blasting them
                # back-to-back into a short bottleneck queue.
                # Rate-based strategies (BBR) supply the rate; the
                # default is two windows per RTT.
                rate = self.cc_algo.pacing_rate()
                if rate is None:
                    rate = 2.0 * max(self._effective_window(), self.mss) / self.srtt
                self.sim.call_in(burst * self.mss / rate, self._drain_cb)
                return  # still pending: kicks during the gap change nothing
        self._drain_pending = False

    def _pump(self) -> bool:
        """Emit at most one segment; True if something was sent."""
        if self.state != "ESTABLISHED" and self.state != "CLOSE_WAIT":
            return False
        window = self._effective_window()
        in_flight = self.snd_nxt - self.snd_una
        if self.in_fast_recovery:
            # Pipe-based accounting (RFC 3517): SACKed bytes left the
            # network, so new data may flow while recovery proceeds.
            in_flight -= self.scoreboard.bytes_in(self.snd_una, self.snd_nxt)
        room = window - in_flight
        if self.snd_buffered > 0 and room > 0:
            # Selective repeat across a post-RTO rewind: never resend
            # ranges the SACK scoreboard says the receiver already holds
            # (resending them would raise duplicate-ACK storms and
            # phantom fast-retransmit cycles).
            held_end, next_sack_start = self.scoreboard.around(self.snd_nxt)
            if held_end is not None:
                self._advance(min(held_end - self.snd_nxt, self.snd_buffered))
                return True  # re-enter the pump with updated state
            if self.in_fast_recovery:
                # Strict ack clocking while recovering: at most one new
                # segment per ACK processed, or the pipe estimate lets the
                # sender outrun the congested bottleneck indefinitely.
                if self._fr_credit <= 0:
                    return False
                self._fr_credit -= 1
            size = min(self.mss, self.snd_buffered, room)
            if next_sack_start is not None:
                size = min(size, next_sack_start - self.snd_nxt)
            if size <= 0:
                return False
            self._transmit_range(self.snd_nxt, size)
            self._advance(size)
            self._arm_rto()
            return True
        if (
            self._closed_for_send
            and not self.fin_sent
            and self.snd_buffered == 0
            and self.snd_nxt == self._app_write_total
        ):
            self.fin_seq = self.snd_nxt
            self.fin_sent = True
            self.snd_nxt += 1  # FIN occupies one sequence number
            self.snd_max = max(self.snd_max, self.snd_nxt)
            self._send_fin()
            self._arm_rto()
            return True
        if self.snd_buffered > 0 and self.snd_nxt == self.snd_una:
            self._arm_rto()  # stalled on zero window: arm the persist timer
        return False

    def _advance(self, nbytes: int) -> None:
        """``nbytes`` of the unsent pool are now in flight (or skipped)."""
        self.snd_nxt += nbytes
        self.snd_buffered -= nbytes
        if self.snd_nxt > self.snd_max:
            self.snd_max = self.snd_nxt

    def _transmit_range(self, seq: int, size: int, is_retransmit: bool = False) -> None:
        markers = [(end, obj) for end, obj in self.snd_markers if seq < end <= seq + size]
        seg = TcpSegment(
            self.local_port, self.remote_port, seq, self.rcv_nxt, ACK,
            self._advertised_window(), payload_size=size,
            payload_data=markers or None,
        )
        if not is_retransmit and self._rtt_probe is None:
            self._rtt_probe = (seq + size, self.sim.now)
            self._retransmitted_since_probe = False
        self._emit(seg)

    def _send_fin(self) -> None:
        self._emit(TcpSegment(self.local_port, self.remote_port, self.fin_seq,
                              self.rcv_nxt, FIN | ACK, self._advertised_window()))

    def _emit(self, seg: TcpSegment) -> None:
        self.layer.transmit(self, seg)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _send_handshake(self) -> None:
        """(Re)send our SYN, or in SYN_RCVD our SYN-ACK."""
        flags = SYN if self.state == "SYN_SENT" else SYN | ACK
        self._emit(TcpSegment(self.local_port, self.remote_port, 0, self.rcv_nxt,
                              flags, self._advertised_window()))

    def _open(self, syn: Optional[TcpSegment] = None) -> None:
        """Start a handshake, actively or answering the peer's ``syn``."""
        self.state = "SYN_SENT" if syn is None else "SYN_RCVD"
        if syn is not None:
            self.rcv_nxt = syn.seq + 1
        self.snd_una = 0
        self.snd_nxt = self.snd_max = self._app_write_total = 1
        self._send_handshake()
        self.rto = INITIAL_RTO
        self._arm_rto()

    def _become_established(self, seg: TcpSegment) -> None:
        """``seg`` acknowledged our SYN."""
        self.state = "ESTABLISHED"
        self.snd_una = max(self.snd_una, 1)
        self.snd_wnd = seg.window
        self._rto_deadline = None
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        # Writes issued during the handshake were queued against the SYN
        # occupying sequence space; release them now.
        self._admit_waiters()
        self._kick_send()

    # ------------------------------------------------------------------
    # Segment arrival
    # ------------------------------------------------------------------
    def on_segment(self, seg: TcpSegment, src_ip: IPv4Address) -> None:
        if self.reset:
            return
        if seg.rst:
            self._do_reset()
            return

        if self.state == "SYN_SENT":
            if seg.syn and seg.ack_flag and seg.ack == 1:
                self.rcv_nxt = seg.seq + 1
                self._become_established(seg)
                self._send_ack()
            return
        if self.state == "SYN_RCVD":
            if seg.syn and not seg.ack_flag:
                self._send_handshake()  # duplicate SYN: peer missed our SYN-ACK
                return
            if seg.ack_flag and seg.ack >= 1:
                self._become_established(seg)
                # fall through: the ACK may carry data
            else:
                return

        if self.state not in ("ESTABLISHED", "CLOSE_WAIT", "FIN_WAIT"):
            return
        if seg.flags & SYN:  # a resent SYN-ACK: our handshake ACK was lost
            self._send_ack()
            return

        if seg.ack_flag:
            self._process_ack(seg)
        if seg.payload_size > 0 or seg.fin:
            self._process_data(seg)

    def _process_ack(self, seg: TcpSegment) -> None:
        old_wnd = self.snd_wnd
        self.snd_wnd = seg.window
        if seg.window > old_wnd:
            self._kick_send()  # window update reopens transmission
        if seg.sack:
            self.scoreboard.merge(seg.sack, self.snd_una, self.snd_max)
        ack = seg.ack
        if ack > self.snd_max:
            return  # acks something we never sent; ignore
        if ack > self.snd_nxt:
            # A post-rewind ACK for data sent before the timeout: fast-
            # forward past the bytes the receiver already holds.
            data_end = self._app_write_total
            if self._closed_for_send and ack == data_end + 1:
                self.fin_sent = True
                self.fin_seq = data_end
                self.snd_nxt = ack
                self.snd_buffered = 0
            else:
                self.snd_nxt = min(ack, data_end)
                self.snd_buffered = data_end - self.snd_nxt
        if ack > self.snd_una:
            flight_before = self.snd_nxt - self.snd_una
            acked = ack - self.snd_una
            self.snd_una = ack
            self.scoreboard.trim(ack)
            self.bytes_acked_total += acked
            self.dupacks = 0
            self._sample_rtt(ack)
            if self.in_fast_recovery:
                if ack >= self.recover:
                    self.cc_algo.on_loss_exit()
                    self.in_fast_recovery = False
                    self._rtx_next = 0
                else:
                    # Partial ACK: keep filling holes (SACK-based recovery;
                    # no Reno inflation/deflation games needed).
                    self._rtx_next = max(self._rtx_next, self.snd_una)
                    self._sack_retransmit()
                    self._fr_credit = min(self._fr_credit + 1, 3)
            else:
                # Window growth is the strategy's call; congestion-window
                # validation (RFC 2861) happens inside on_ack using the
                # pre-ACK flight.
                self.cc_algo.on_ack(acked, flight_before)
            # Release send-buffer waiters now that bytes left the buffer.
            self._admit_waiters()
            # Restart RTO for remaining flight (backoff cleared by new
            # data). No timer wakeup needed: the deadline only moves
            # *later* here, and the sleeping timer re-checks on expiry —
            # saving three event allocations per ACK.
            self.rto = self._computed_rto()
            self._rto_deadline = (self.sim.now + self.rto) if self.snd_una < self.snd_nxt else None
            while self.snd_markers and self.snd_markers[0][0] <= self.snd_una:
                self.snd_markers.pop(0)
            if self._cc_series is not None:
                cwnd_s, ssthresh_s, srtt_s = self._cc_series
                cwnd_s.record(float(self.cc_algo.cwnd))
                ssthresh_s.record(float(self.cc_algo.ssthresh))
                srtt_s.record((self.srtt or 0.0) * 1000.0)
            if self.fin_sent and self.snd_una > self.fin_seq:
                self._maybe_finish()
            self._kick_send()
        elif (ack == self.snd_una and self.snd_una < self.snd_nxt
              and seg.payload_size == 0 and seg.window == old_wnd):
            # A true duplicate ACK: same ack, no data, *unchanged window*
            # (window updates from the receiving app draining its buffer
            # must not be mistaken for loss signals).
            self._on_dup_ack()

    def _admit_waiters(self) -> None:
        while self._send_waiters:
            nbytes, event, obj = self._send_waiters[0]
            in_use = (self.snd_nxt - self.snd_una) + self.snd_buffered
            if in_use + nbytes > self.send_buf_capacity and in_use > 0:
                break
            self._send_waiters.pop(0)
            self._accept_bytes(nbytes, obj)
            event.succeed(nbytes)

    def _maybe_finish(self) -> None:
        sent_all = self.fin_sent and self.fin_seq is not None and self.snd_una > self.fin_seq
        got_all = self._eof_delivered
        if sent_all and got_all and self.state != "CLOSED":
            self.state = "CLOSED"
            self.layer._remove(self)

    def _do_reset(self) -> None:
        self.reset = True
        self.state = "CLOSED"
        if not self.established_event.triggered:
            self.established_event.fail(ConnectionReset("connection reset"))
            self.established_event.defuse()
        if not self._eof_delivered:
            self._eof_delivered = True
            self.app_inbox.try_put(None)
        for _n, event, _obj in self._send_waiters:
            event.fail(ConnectionReset("connection reset"))
            event.defuse()
        self._send_waiters.clear()
        self._stop_timer()
        self.layer._remove(self)

"""TCP with pluggable congestion control (see :mod:`repro.net.cc`).

Every throughput experiment in the paper (ttcp Fig 6, netperf Figs 7-9,
ApacheBench Tables III-IV, migration traffic Table V) is TCP-shaped, so
the transport has to reproduce real TCP dynamics:

* slow start / congestion avoidance with ``ssthresh`` — delegated to a
  per-connection :class:`~repro.net.cc.CongestionControl` strategy
  (``cc="reno" | "cubic" | "bbr"``, cubic by default);
* fast retransmit + fast recovery on 3 duplicate ACKs;
* retransmission timeout with Jacobson/Karn RTT estimation and
  exponential backoff;
* receiver flow control (advertised window backed by a finite buffer);
* byte-counted streams with in-order delivery and out-of-order reassembly.

Loss recovery is SACK-based (a scoreboard of the ranges the peer holds,
RFC 3517 pipe accounting). Simplifications relative to a kernel stack:
no Nagle, no delayed ACKs, no TIME_WAIT, sequence numbers never wrap
(Python ints). None of these affect the phenomena the paper measures.

Application data is modeled as byte *counts*; message objects ride along
as "markers" pinned to a byte offset and surface at the receiver exactly
when that offset is delivered in order — giving apps (HTTP, migration)
reliable message framing on top of the byte stream.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addresses import IPv4Address
from repro.net.cc import cc_algorithm
from repro.net.packet import ACK, FIN, RST, SYN, TcpSegment, ipv4
from repro.sim.engine import Event, Simulator, Timer
from repro.sim.queues import Store

__all__ = ["TcpConnection", "TcpLayer", "TcpListener", "ConnectionReset"]

EPHEMERAL_BASE = 33000
EPHEMERAL_LIMIT = 60999

MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0

# -- capacity accounting (shared with the fluid plane, repro.net.fluid) --
# Wire bytes added per MSS of goodput on a native path: TCP header (20)
# + IPv4 header (20) + Ethernet header (14) + FCS (4).
WIRE_OVERHEAD_TCP = 58


class ConnectionReset(Exception):
    """Raised to waiters when the peer resets or the connection aborts."""


class TcpListener:
    """Passive endpoint; ``accept()`` yields established connections."""

    def __init__(self, layer: "TcpLayer", port: int, backlog: int = 64) -> None:
        self.layer = layer
        self.port = port
        self.accept_queue: Store = Store(layer.stack.sim, capacity=backlog)
        self.closed = False

    def accept(self) -> Event:
        return self.accept_queue.get()

    def close(self) -> None:
        self.closed = True
        self.layer.listeners.pop(self.port, None)


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(
        self,
        layer: "TcpLayer",
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        mss: int,
        send_buf: int,
        recv_buf: int,
        cc: str = "cubic",
    ) -> None:
        self.layer = layer
        self.sim: Simulator = layer.stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.mss = mss
        self.send_buf_capacity = send_buf
        self.recv_buf_capacity = recv_buf

        self.state = "CLOSED"
        self.established_event: Event = Event(self.sim)

        # --- sender state (byte sequence space; ISS = 0 for clarity) ---
        self.snd_una = 0          # oldest unacknowledged byte
        self.snd_nxt = 0          # next byte to send
        self.snd_max = 0          # highest byte ever sent (for ack sanity)
        self.snd_buffered = 0     # bytes accepted from app, not yet sent
        self.snd_markers: list[tuple[int, Any]] = []  # (end_offset, obj)
        self._app_write_total = 0  # absolute offset of last byte accepted
        self.snd_wnd = recv_buf   # peer's advertised window
        self._send_waiters: list[tuple[int, Event]] = []  # (bytes, event)
        self.fin_pending = False
        self.fin_sent = False
        self.fin_seq: Optional[int] = None

        # --- congestion control (strategy plane, repro.net.cc) ---
        # Path RTT tracking shared by the strategies (HyStart's
        # delay-increase exit, BBR's BDP): the path minimum and the
        # freshest sample.
        self._min_rtt: Optional[float] = None
        self._last_rtt_sample: Optional[float] = None
        self.cc = cc
        self.cc_algo = cc_algorithm(cc, self)
        self._cc_series: Optional[tuple] = None
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover = 0
        # SACK scoreboard: disjoint sorted (start, end) ranges the peer
        # holds above snd_una; _rtx_next tracks recovery progress.
        self._sacked: list[tuple[int, int]] = []
        self._rtx_next = 0
        self._fr_credit = 0      # new-data sends allowed during recovery
        self._head_rtx_mark = 0  # sack high-water when head was last resent
        self._head_rtx_time = -1.0

        # --- RTT estimation ---
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rtt_probe: Optional[tuple[int, float]] = None  # (seq_end, sent_at)
        self._retransmitted_since_probe = False

        # --- retransmit timer ---
        # Cancelable kernel timer instead of a dedicated timer process:
        # arming is one calendar push, rearming reuses a live timer when
        # it fires at/before the new deadline (the fire re-arms itself).
        self._rto_deadline: Optional[float] = None
        self._rto_timer: Optional[Timer] = None
        self._timer_cb = self._timer_fire  # bind once, not per arm

        # --- receiver state ---
        self.rcv_nxt = 0
        self.ooo: dict[int, int] = {}  # seq -> length (out-of-order runs)
        self._rx_markers: dict[int, Any] = {}  # end offset -> app object
        self.rcv_unread = 0    # in-order bytes delivered to the app inbox, unread
        self.ooo_bytes = 0     # bytes parked in the out-of-order store
        self.app_inbox: Store = Store(self.sim)
        self.peer_fin_seq: Optional[int] = None
        self._eof_delivered = False

        # --- bookkeeping ---
        self.bytes_acked_total = 0
        self.bytes_delivered_total = 0
        self.retransmits = 0
        self.timeouts = 0
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
    @property
    def key(self) -> tuple[int, IPv4Address, int]:
        return (self.local_port, self.remote_ip, self.remote_port)

    # Window state is owned by the strategy; delegate so every existing
    # reader (apps, tests, benchmarks) keeps working unchanged.
    @property
    def cwnd(self) -> int:
        return self.cc_algo.cwnd

    @cwnd.setter
    def cwnd(self, value: int) -> None:
        self.cc_algo.cwnd = value

    @property
    def ssthresh(self) -> int:
        return self.cc_algo.ssthresh

    @ssthresh.setter
    def ssthresh(self, value: int) -> None:
        self.cc_algo.ssthresh = value

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
        if self._closed_for_send or self.reset:
            ev = Event(self.sim)
            ev.fail(ConnectionReset("send on closed/reset connection"))
            return ev
        if nbytes < 0:
            raise ValueError("negative send size")
        ev = Event(self.sim)
        in_flight_or_buffered = (self.snd_nxt - self.snd_una) + self.snd_buffered
        if in_flight_or_buffered + nbytes <= self.send_buf_capacity or in_flight_or_buffered == 0:
            self._accept_bytes(nbytes, obj)
            ev.succeed(nbytes)
        else:
            self._send_waiters.append((nbytes, _Pending(ev, obj)))
        return ev

    def recv(self) -> Event:
        """Event yielding ``(nbytes, [objs])`` or ``None`` at EOF."""
        return self.app_inbox.get()

    def close(self) -> None:
        """Half-close: FIN after all queued data; receiving still works."""
        if self._closed_for_send:
            return
        self._closed_for_send = True
        self.fin_pending = True
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

    def _kick_timer(self) -> None:
        """(Re)arm the RTO timer to cover ``_rto_deadline``."""
        dl = self._rto_deadline
        if dl is None:
            return
        t = self._rto_timer
        if t is not None and t.active:
            if t.when <= dl + 1e-12:
                return  # fires at/before the deadline; re-arms itself
            t.cancel()
        self._rto_timer = self.sim.timer(max(dl - self.sim.now, 0.0), self._timer_cb)

    def _effective_window(self) -> int:
        return min(self.cwnd, self.snd_wnd)

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
            in_flight -= self._sacked_bytes()
        room = window - in_flight
        if self.snd_buffered > 0 and room > 0:
            # Selective repeat across a post-RTO rewind: never resend
            # ranges the SACK scoreboard says the receiver already holds
            # (resending them would raise duplicate-ACK storms and
            # phantom fast-retransmit cycles).
            next_sack_start = None
            for start, end in self._sacked:
                if start <= self.snd_nxt < end:
                    skip = min(end - self.snd_nxt, self.snd_buffered)
                    self.snd_nxt += skip
                    self.snd_buffered -= skip
                    if self.snd_nxt > self.snd_max:
                        self.snd_max = self.snd_nxt
                    return True  # re-enter the pump with updated state
                if start > self.snd_nxt:
                    next_sack_start = start
                    break
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
            self.snd_nxt += size
            self.snd_buffered -= size
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            self._arm_rto()
            return True
        if (
            self.fin_pending
            and not self.fin_sent
            and self.snd_buffered == 0
            and self.snd_nxt == self._app_write_total
        ):
            self.fin_seq = self.snd_nxt
            self.fin_sent = True
            self.snd_nxt += 1  # FIN occupies one sequence number
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            self._emit(TcpSegment(self.local_port, self.remote_port,
                                  self.fin_seq, self.rcv_nxt, FIN | ACK,
                                  self._advertised_window()))
            self._arm_rto()
            return True
        if self.snd_buffered > 0 and self.snd_nxt == self.snd_una:
            self._arm_rto()  # stalled on zero window: arm the persist timer
        return False

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

    def _emit(self, seg: TcpSegment) -> None:
        self.layer.transmit(self, seg)

    def _arm_rto(self) -> None:
        if self._rto_deadline is None:
            self._rto_deadline = self.sim.now + self.rto
            self._kick_timer()

    def _timer_fire(self) -> None:
        self._rto_timer = None
        if self.reset:
            return
        dl = self._rto_deadline
        if dl is None:
            return  # everything acked while we slept; go dormant
        sim = self.sim
        if dl - sim.now > 1e-12:
            # Deadline moved later while we slept (ACKs restart the RTO
            # without rescheduling); sleep out the remainder.
            self._rto_timer = sim.timer(dl - sim.now, self._timer_cb)
            return
        # Deadline reached: anything outstanding?
        if self.snd_una < self.snd_nxt or (self.state == "SYN_SENT"):
            self._on_rto()
        elif self.snd_buffered > 0 and self._effective_window() < self.mss:
            self._persist_probe()
        else:
            self._rto_deadline = None
        self._kick_timer()  # no-op if the deadline was cleared

    def _on_rto(self) -> None:
        self.timeouts += 1
        if self.state == "SYN_SENT":
            self._send_syn()
        else:
            flight = self.snd_nxt - self.snd_una
            self.cc_algo.on_rto(flight)
            self.dupacks = 0
            self.in_fast_recovery = False
            self._rewind_to_una()
            self.retransmits += 1
            self._kick_send()
        self.rto = min(self.rto * 2, MAX_RTO)
        self._rto_deadline = self.sim.now + self.rto
        self._rtt_probe = None
        self._retransmitted_since_probe = True

    def _rewind_to_una(self) -> None:
        """Go-back-N after a timeout: unacked bytes return to the unsent
        pool so the pump resends them under the collapsed cwnd. The
        receiver's out-of-order cache turns most resends into fast,
        cumulative ACK jumps."""
        if self.snd_nxt == self.snd_una:
            return
        if self.fin_sent and self.fin_seq is not None and self.fin_seq >= self.snd_una:
            self.fin_sent = False  # FIN will be re-emitted after the data
            self.fin_seq = None
        self.snd_nxt = self.snd_una
        self.snd_buffered = self._app_write_total - self.snd_nxt

    # -- SACK machinery -------------------------------------------------
    def _merge_sack(self, blocks: tuple) -> None:
        ranges = [r for r in self._sacked if r[1] > self.snd_una]
        for start, end in blocks:
            if end <= self.snd_una or start >= end:
                continue
            ranges.append((max(start, self.snd_una), min(end, self.snd_max)))
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._sacked = merged

    def _sacked_bytes(self) -> int:
        """SACKed bytes *within the current flight* [snd_una, snd_nxt).
        After a rewind the scoreboard legitimately holds ranges beyond
        snd_nxt (the receiver does have them); counting those into the
        pipe estimate would make it negative and unleash bursts."""
        total = 0
        for start, end in self._sacked:
            lo = max(start, self.snd_una)
            hi = min(end, self.snd_nxt)
            if hi > lo:
                total += hi - lo
        return total

    def _sack_retransmit(self) -> bool:
        """Fill scoreboard holes in [snd_una, recover) within the cwnd
        budget. Returns True if anything was retransmitted."""
        if not self._sacked:
            return False
        pipe = (self.snd_nxt - self.snd_una) - self._sacked_bytes()
        # ACK clocking: one segment per incoming ACK while the pipe is
        # above cwnd (pure replacement), two when there is headroom — a
        # recovery episode cannot itself overflow the bottleneck queue.
        headroom = self.cwnd - pipe
        budget = 2 * self.mss if headroom >= 2 * self.mss else self.mss
        seq = max(self._rtx_next, self.snd_una)
        sent_any = False
        while budget > 0 and seq < self.recover:
            if self.fin_seq is not None and seq >= self.fin_seq:
                # The hole is the FIN itself: re-emit it as a FIN, never
                # as data (a data byte at fin_seq would make the receiver
                # skip the FIN and lose the EOF).
                self._emit(TcpSegment(self.local_port, self.remote_port,
                                      self.fin_seq, self.rcv_nxt, FIN | ACK,
                                      self._advertised_window()))
                self.retransmits += 1
                seq = self.recover
                self._rtx_next = seq
                sent_any = True
                break
            hole_end = self.recover
            if self.fin_seq is not None:
                hole_end = min(hole_end, self.fin_seq)
            covered = False
            for start, end in self._sacked:
                if start <= seq < end:
                    seq = end  # already at the receiver; skip
                    covered = True
                    break
                if start > seq:
                    hole_end = min(hole_end, start)
                    break
            if covered:
                continue
            size = min(self.mss, hole_end - seq)
            if size <= 0:
                break
            self._transmit_range(seq, size, is_retransmit=True)
            self.retransmits += 1
            seq += size
            self._rtx_next = seq
            budget -= size
            sent_any = True
        if sent_any:
            self._arm_rto()
        return sent_any

    def _persist_probe(self) -> None:
        """Zero-window probe: push one byte past the window so the peer's
        ACK re-advertises its (possibly reopened) window."""
        self._transmit_range(self.snd_nxt, 1, is_retransmit=True)
        self.snd_nxt += 1
        self.snd_buffered -= 1
        if self.snd_nxt > self.snd_max:
            self.snd_max = self.snd_nxt
        self.rto = min(self.rto * 2, MAX_RTO)
        self._rto_deadline = self.sim.now + self.rto

    def _retransmit_head(self) -> None:
        if self.snd_una >= self.snd_nxt:
            return
        self.retransmits += 1
        if self.fin_sent and self.snd_una == self.fin_seq:
            self._emit(TcpSegment(self.local_port, self.remote_port,
                                  self.fin_seq, self.rcv_nxt, FIN | ACK,
                                  self._advertised_window()))
            return
        size = min(self.mss, self.snd_nxt - self.snd_una)
        if self.fin_seq is not None:
            size = min(size, max(self.fin_seq - self.snd_una, 0)) or size
        self._transmit_range(self.snd_una, size, is_retransmit=True)
        self._retransmitted_since_probe = True

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _send_syn(self) -> None:
        self._emit(TcpSegment(self.local_port, self.remote_port, 0, 0, SYN,
                              self._advertised_window()))

    def _start_active_open(self) -> None:
        self.state = "SYN_SENT"
        self.snd_una = 0
        self.snd_nxt = 1  # SYN consumes sequence 0
        self.snd_max = 1
        self._app_write_total = 1
        self._send_syn()
        self.rto = INITIAL_RTO
        self._rto_deadline = self.sim.now + self.rto
        self._kick_timer()

    def _start_passive_open(self, syn: TcpSegment) -> None:
        self.state = "SYN_RCVD"
        self.rcv_nxt = syn.seq + 1
        self.snd_una = 0
        self.snd_nxt = 1
        self.snd_max = 1
        self._app_write_total = 1
        self._emit(TcpSegment(self.local_port, self.remote_port, 0, self.rcv_nxt,
                              SYN | ACK, self._advertised_window()))
        self.rto = INITIAL_RTO
        self._rto_deadline = self.sim.now + self.rto
        self._kick_timer()

    def _become_established(self) -> None:
        self.state = "ESTABLISHED"
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
                self.snd_una = 1
                self.snd_wnd = seg.window
                self._become_established()
                self._send_ack()
            return
        if self.state == "SYN_RCVD":
            if seg.syn and not seg.ack_flag:
                # Duplicate SYN: peer missed our SYN-ACK.
                self._emit(TcpSegment(self.local_port, self.remote_port, 0,
                                      self.rcv_nxt, SYN | ACK, self._advertised_window()))
                return
            if seg.ack_flag and seg.ack >= 1:
                self.snd_una = max(self.snd_una, 1)
                self.snd_wnd = seg.window
                self._become_established()
                # fall through: the ACK may carry data
            else:
                return

        if self.state not in ("ESTABLISHED", "CLOSE_WAIT", "FIN_WAIT"):
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
            self._merge_sack(seg.sack)
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
            if self._sacked and self._sacked[0][1] <= ack:
                self._sacked = [r for r in self._sacked if r[1] > ack]
            self.bytes_acked_total += acked
            self.dupacks = 0
            # RTT sample (Karn: skip if a retransmission is ambiguous).
            if self._rtt_probe is not None:
                probe_end, sent_at = self._rtt_probe
                if ack >= probe_end:
                    if not self._retransmitted_since_probe:
                        self._update_rtt(self.sim.now - sent_at)
                    self._rtt_probe = None
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
            self._trim_markers()
            if self._cc_series is not None:
                cwnd_s, ssthresh_s, srtt_s = self._cc_series
                cwnd_s.record(float(self.cwnd))
                ssthresh_s.record(float(self.ssthresh))
                srtt_s.record((self.srtt or 0.0) * 1000.0)
            if self.fin_sent and self.snd_una > self.fin_seq:
                self._maybe_finish()
            self._kick_send()
        elif (ack == self.snd_una and self.snd_una < self.snd_nxt
              and seg.payload_size == 0 and seg.window == old_wnd):
            # A true duplicate ACK: same ack, no data, *unchanged window*
            # (window updates from the receiving app draining its buffer
            # must not be mistaken for loss signals).
            self.dupacks += 1
            if self.in_fast_recovery:
                if not self._sack_retransmit():
                    # RFC 3517 IsLost: if >= 3 segments were SACKed above
                    # the head since its last retransmission, that
                    # retransmission is deemed lost - resend it now
                    # instead of stalling until the RTO.
                    high = self._sacked[-1][1] if self._sacked else 0
                    waited = self.sim.now - self._head_rtx_time
                    if (high >= self._head_rtx_mark + 3 * self.mss
                            and waited > (self.srtt or 0.0)):
                        self._head_rtx_mark = high
                        self._head_rtx_time = self.sim.now
                        self._retransmit_head()
                self._fr_credit = min(self._fr_credit + 1, 3)  # ack clock
                self._kick_send()
            elif self.dupacks == 3:
                flight = self.snd_nxt - self.snd_una
                self.cc_algo.on_dup_ack(flight)
                self.in_fast_recovery = True
                self.recover = self.snd_nxt
                self._rtx_next = self.snd_una
                self._fr_credit = 0
                self._head_rtx_mark = self._sacked[-1][1] if self._sacked else 0
                if not self._sack_retransmit():
                    self._retransmit_head()

    def _admit_waiters(self) -> None:
        while self._send_waiters:
            nbytes, pending = self._send_waiters[0]
            in_use = (self.snd_nxt - self.snd_una) + self.snd_buffered
            if in_use + nbytes > self.send_buf_capacity and in_use > 0:
                break
            self._send_waiters.pop(0)
            self._accept_bytes(nbytes, pending.obj)
            pending.event.succeed(nbytes)

    def _trim_markers(self) -> None:
        while self.snd_markers and self.snd_markers[0][0] <= self.snd_una:
            self.snd_markers.pop(0)

    def _update_rtt(self, sample: float) -> None:
        self._last_rtt_sample = sample
        if self._min_rtt is None or sample < self._min_rtt:
            self._min_rtt = sample
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = self._computed_rto()

    def _computed_rto(self) -> float:
        if self.srtt is None:
            return INITIAL_RTO
        return min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)

    # -- receive side -------------------------------------------------
    def _advertised_window(self) -> int:
        # Canonical receive window: free space against *in-order* unread
        # data only. Out-of-order bytes do not shrink the advertisement
        # (shrinking it would make every hole-induced duplicate ACK look
        # like a window update and defeat fast retransmit).
        return max(self.recv_buf_capacity - self.rcv_unread, 0)

    def _process_data(self, seg: TcpSegment) -> None:
        seq, size = seg.seq, seg.payload_size
        if seg.fin:
            self.peer_fin_seq = seq + size
        # Stash app message markers keyed by absolute end offset; released
        # in offset order once the stream reaches them (idempotent across
        # retransmissions).
        if seg.payload_data:
            for end, obj in seg.payload_data:
                if end > self.rcv_nxt:
                    self._rx_markers[end] = obj
        if size > 0:
            if seq + size <= self.rcv_nxt:
                self._send_ack()  # pure duplicate
                return
            if seq > self.rcv_nxt:
                self._insert_ooo(seq, size)
                self._send_ack()  # duplicate ACK signals the hole
                return
            # In-order (possibly overlapping) delivery.
            old_nxt = self.rcv_nxt
            self.rcv_nxt = seq + size
            # Absorb out-of-order runs that are now contiguous or stale;
            # ascending order guarantees each run is checked against the
            # frontier it may extend.
            for oseq in sorted(self.ooo):
                if oseq > self.rcv_nxt:
                    break
                osize = self.ooo.pop(oseq)
                self.ooo_bytes -= osize
                if oseq + osize > self.rcv_nxt:
                    self.rcv_nxt = oseq + osize
            total = self.rcv_nxt - old_nxt
            ready = sorted(end for end in self._rx_markers if end <= self.rcv_nxt)
            allobjs = [self._rx_markers.pop(end) for end in ready]
            self.bytes_delivered_total += total
            self.rcv_unread += total  # held until app reads
            self.app_inbox.put_nowait(_RxChunk(total, allobjs, self))
        if self.peer_fin_seq is not None and self.rcv_nxt == self.peer_fin_seq:
            self.rcv_nxt += 1  # consume FIN
            if not self._eof_delivered:
                self._eof_delivered = True
                self.app_inbox.put_nowait(None)
            if self.state == "ESTABLISHED":
                self.state = "CLOSE_WAIT"
        self._send_ack()
        self._maybe_finish()

    def _insert_ooo(self, seq: int, size: int) -> None:
        """Store an out-of-order run, merging overlaps so byte accounting
        stays exact across rewound retransmissions."""
        start, end = max(seq, self.rcv_nxt), seq + size
        if start >= end:
            return
        for s in sorted(self.ooo):
            e = s + self.ooo[s]
            if e < start or s > end:
                continue
            start = min(start, s)
            end = max(end, e)
            self.ooo_bytes -= e - s
            del self.ooo[s]
        if self.rcv_unread + self.ooo_bytes + (end - start) <= self.recv_buf_capacity:
            self.ooo[start] = end - start
            self.ooo_bytes += end - start

    def _sack_blocks(self) -> tuple:
        if not self.ooo:
            return ()
        runs = sorted(self.ooo.items())
        return tuple((s, s + sz) for s, sz in runs[:4])

    def app_read(self, nbytes: int) -> None:
        """Called by the receive wrapper when the app consumes bytes."""
        window_before = self._advertised_window()
        self.rcv_unread -= nbytes
        if window_before < self.mss and self._advertised_window() >= self.mss:
            self._send_ack()  # window update

    def _send_ack(self) -> None:
        self._emit(TcpSegment(self.local_port, self.remote_port, self.snd_nxt,
                              self.rcv_nxt, ACK, self._advertised_window(),
                              sack=self._sack_blocks()))

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
        for _n, pending in self._send_waiters:
            pending.event.fail(ConnectionReset("connection reset"))
            pending.event.defuse()
        self._send_waiters.clear()
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        self.layer._remove(self)


class _Pending:
    __slots__ = ("event", "obj")

    def __init__(self, event: Event, obj: Any) -> None:
        self.event = event
        self.obj = obj


class _RxChunk(tuple):
    """(nbytes, objs) that notifies flow control when unpacked via .read()."""

    def __new__(cls, nbytes: int, objs: list, conn: TcpConnection):
        self = super().__new__(cls, (nbytes, objs))
        return self

    def __init__(self, nbytes: int, objs: list, conn: TcpConnection) -> None:
        self.conn = conn

    @property
    def nbytes(self) -> int:
        return self[0]

    @property
    def objs(self) -> list:
        return self[1]


class TcpLayer:
    """Per-stack TCP demultiplexer and connection factory."""

    def __init__(self, stack, mss: int = 1460, send_buf: int = 262144,
                 recv_buf: int = 262144, cc: str = "cubic") -> None:
        self.stack = stack
        self.mss = mss
        self.send_buf = send_buf
        self.recv_buf = recv_buf
        self.cc = cc
        self.listeners: dict[int, TcpListener] = {}
        self.connections: dict[tuple[int, IPv4Address, int], TcpConnection] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rx_segments = 0
        self.segments_sent = 0

    # -- API ------------------------------------------------------------
    def listen(self, port: int, backlog: int = 64) -> TcpListener:
        if port in self.listeners:
            raise RuntimeError(f"TCP port {port} already listening on {self.stack.name}")
        listener = TcpListener(self, port, backlog)
        self.listeners[port] = listener
        return listener

    def connect(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        mss: Optional[int] = None,
        send_buf: Optional[int] = None,
        recv_buf: Optional[int] = None,
        cc: Optional[str] = None,
    ) -> TcpConnection:
        """Start an active open; wait on ``conn.wait_established()``.
        ``cc`` picks the congestion-control algorithm for this
        connection (default: the layer's, normally "cubic")."""
        local_port = self._alloc_ephemeral(dst_ip, dst_port)
        conn = TcpConnection(
            self, local_port, dst_ip, dst_port,
            mss or self.mss, send_buf or self.send_buf, recv_buf or self.recv_buf,
            cc=cc or self.cc,
        )
        self.connections[conn.key] = conn
        conn._start_active_open()
        return conn

    def _alloc_ephemeral(self, dst_ip: IPv4Address, dst_port: int) -> int:
        start = self._next_ephemeral
        port = start
        while (port, dst_ip, dst_port) in self.connections or port in self.listeners:
            port += 1
            if port > EPHEMERAL_LIMIT:
                port = EPHEMERAL_BASE
            if port == start:
                raise RuntimeError("ephemeral TCP ports exhausted")
        self._next_ephemeral = port + 1 if port < EPHEMERAL_LIMIT else EPHEMERAL_BASE
        return port

    def _remove(self, conn: TcpConnection) -> None:
        self.connections.pop(conn.key, None)

    # -- datapath ---------------------------------------------------------
    def transmit(self, conn: TcpConnection, seg: TcpSegment) -> None:
        self.segments_sent += 1
        src_ip = self.stack.source_ip_for(conn.remote_ip)
        self.stack.send_ip(ipv4(src_ip, conn.remote_ip, seg))

    def receive(self, packet) -> None:
        seg: TcpSegment = packet.payload
        self.rx_segments += 1
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_segment(seg, packet.src)
            return
        listener = self.listeners.get(seg.dst_port)
        if listener is not None and seg.syn and not seg.ack_flag and not listener.closed:
            conn = TcpConnection(self, seg.dst_port, packet.src, seg.src_port,
                                 self.mss, self.send_buf, self.recv_buf,
                                 cc=self.cc)
            self.connections[key] = conn
            conn._start_passive_open(seg)
            if not listener.accept_queue.try_put(conn):
                conn.abort()  # backlog overflow
            return
        # No matching endpoint: RST (unless the stray is itself a RST).
        if not seg.rst:
            rst = TcpSegment(seg.dst_port, seg.src_port, seg.ack, seg.seq + seg.payload_size,
                             RST | ACK, 0)
            self.stack.send_ip(ipv4(self.stack.source_ip_for(packet.src), packet.src, rst))


# ----------------------------------------------------------------------
# Convenience processes used by apps and tests
# ----------------------------------------------------------------------

def stream_bytes(conn: TcpConnection, total: int, chunk: int = 65536, obj_last: Any = None):
    """Process body: write ``total`` bytes through ``conn`` with backpressure."""
    sent = 0
    while sent < total:
        n = min(chunk, total - sent)
        is_last = sent + n >= total
        yield conn.send(n, obj=obj_last if is_last else None)
        sent += n
    return sent


def drain_bytes(conn: TcpConnection, expected: Optional[int] = None):
    """Process body: read until EOF (or ``expected`` bytes); returns count."""
    got = 0
    while True:
        chunk = yield conn.recv()
        if chunk is None:
            break
        nbytes = chunk.nbytes
        conn.app_read(nbytes)
        got += nbytes
        if expected is not None and got >= expected:
            break
    return got

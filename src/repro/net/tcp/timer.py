"""The retransmission timer: RTT estimation, RTO backoff, persist probes."""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Timer

MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0


class RetransmitTimer:
    def __init__(self) -> None:
        # Path RTT tracking shared by the congestion-control strategies
        # (HyStart's delay-increase exit, BBR's BDP): the path minimum and
        # the freshest sample.
        self._min_rtt: Optional[float] = None
        self._last_rtt_sample: Optional[float] = None
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rtt_probe: Optional[tuple[int, float]] = None  # (seq_end, sent_at)
        self._retransmitted_since_probe = False
        self.timeouts = 0
        # Cancelable kernel timer instead of a dedicated timer process:
        # arming is one calendar push, rearming reuses a live timer when
        # it fires at/before the new deadline (the fire re-arms itself).
        self._rto_deadline: Optional[float] = None
        self._rto_timer: Optional[Timer] = None
        self._timer_cb = self._timer_fire  # bind once, not per arm

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

    def _arm_rto(self) -> None:
        if self._rto_deadline is None:
            self._rto_deadline = self.sim.now + self.rto
            self._kick_timer()

    def _stop_timer(self) -> None:
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _timer_fire(self) -> None:
        self._rto_timer = None
        if self.reset:
            return
        dl = self._rto_deadline
        if dl is None:
            return  # everything acked while we slept; go dormant
        if dl - self.sim.now > 1e-12:
            # Deadline moved later while we slept (ACKs restart the RTO
            # without rescheduling); sleep out the remainder.
            self._rto_timer = self.sim.timer(dl - self.sim.now, self._timer_cb)
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
        if self.state in ("SYN_SENT", "SYN_RCVD"):
            self._send_handshake()  # no data in flight: no congestion response
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

    def _persist_probe(self) -> None:
        """Zero-window probe: push one byte past the window so the peer's
        ACK re-advertises its (possibly reopened) window."""
        self._transmit_range(self.snd_nxt, 1, is_retransmit=True)
        self._advance(1)
        self.rto = min(self.rto * 2, MAX_RTO)
        self._rto_deadline = self.sim.now + self.rto

    def _sample_rtt(self, ack: int) -> None:
        """The RTT sample ``ack`` completes, unless a resend blurs it (Karn)."""
        if self._rtt_probe is not None:
            probe_end, sent_at = self._rtt_probe
            if ack >= probe_end:
                if not self._retransmitted_since_probe:
                    self._update_rtt(self.sim.now - sent_at)
                self._rtt_probe = None

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

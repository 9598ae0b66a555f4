"""Loss recovery: the SACK scoreboard and the retransmissions it drives."""

from __future__ import annotations


class Scoreboard:
    """Disjoint sorted ``(start, end)`` ranges the peer holds; only this reads them."""

    __slots__ = ("ranges",)

    def __init__(self) -> None:
        self.ranges: list[tuple[int, int]] = []

    def merge(self, blocks: tuple, una: int, limit: int) -> None:
        """Add the peer's SACK ``blocks``, clipped to ``[una, limit)``."""
        ranges = [r for r in self.ranges if r[1] > una]
        for start, end in blocks:
            if end <= una or start >= end:
                continue
            ranges.append((max(start, una), min(end, limit)))
        ranges.sort()
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self.ranges = merged

    def trim(self, ack: int) -> None:
        """Forget the ranges a cumulative ``ack`` covers."""
        if self.ranges and self.ranges[0][1] <= ack:
            self.ranges = [r for r in self.ranges if r[1] > ack]

    def bytes_in(self, lo: int, hi: int) -> int:
        """Bytes the peer holds within ``[lo, hi)``."""
        total = 0
        for start, end in self.ranges:
            lo_, hi_ = max(start, lo), min(end, hi)
            if hi_ > lo_:
                total += hi_ - lo_
        return total

    def around(self, seq: int) -> tuple:
        """``(end, None)`` of a range holding ``seq``, else ``(None, next start)``."""
        for start, end in self.ranges:
            if start <= seq < end:
                return end, None
            if start > seq:
                return None, start
        return None, None

    def high(self) -> int:
        """The highest byte the peer holds (0 with no ranges)."""
        return self.ranges[-1][1] if self.ranges else 0


class LossRecovery:
    def __init__(self) -> None:
        self.dupacks = 0
        self.in_fast_recovery = False
        self.recover = 0
        self.scoreboard = Scoreboard()
        self._rtx_next = 0       # recovery progress through the holes
        self._fr_credit = 0      # new-data sends allowed during recovery
        self._head_rtx_mark = 0  # sack high-water when head was last resent
        self._head_rtx_time = -1.0
        self.retransmits = 0

    def _on_dup_ack(self) -> None:
        self.dupacks += 1
        if self.in_fast_recovery:
            if not self._sack_retransmit():
                # RFC 3517 IsLost: if >= 3 segments were SACKed above
                # the head since its last retransmission, that
                # retransmission is deemed lost - resend it now
                # instead of stalling until the RTO.
                high = self.scoreboard.high()
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
            self._head_rtx_mark = self.scoreboard.high()
            if not self._sack_retransmit():
                self._retransmit_head()

    def _sack_retransmit(self) -> bool:
        """Fill scoreboard holes in [snd_una, recover) within the cwnd
        budget. Returns True if anything was retransmitted."""
        if not self.scoreboard.ranges:
            return False
        # SACKed bytes *within the current flight* only: after a rewind
        # the scoreboard legitimately holds ranges beyond snd_nxt, and
        # counting those would make the pipe estimate negative.
        pipe = (self.snd_nxt - self.snd_una) - self.scoreboard.bytes_in(self.snd_una,
                                                                        self.snd_nxt)
        # ACK clocking: one segment per incoming ACK while the pipe is
        # above cwnd (pure replacement), two when there is headroom — a
        # recovery episode cannot itself overflow the bottleneck queue.
        headroom = self.cc_algo.cwnd - pipe
        budget = 2 * self.mss if headroom >= 2 * self.mss else self.mss
        seq = max(self._rtx_next, self.snd_una)
        sent_any = False
        while budget > 0 and seq < self.recover:
            if self.fin_seq is not None and seq >= self.fin_seq:
                # The hole is the FIN itself: re-emit it as a FIN, never
                # as data (a data byte at fin_seq would make the receiver
                # skip the FIN and lose the EOF).
                self._send_fin()
                self.retransmits += 1
                seq = self.recover
                self._rtx_next = seq
                sent_any = True
                break
            hole_end = self.recover
            if self.fin_seq is not None:
                hole_end = min(hole_end, self.fin_seq)
            held_end, next_start = self.scoreboard.around(seq)
            if held_end is not None:
                seq = held_end  # already at the receiver; skip
                continue
            if next_start is not None:
                hole_end = min(hole_end, next_start)
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

    def _retransmit_head(self) -> None:
        if self.snd_una >= self.snd_nxt:
            return
        self.retransmits += 1
        if self.fin_sent and self.snd_una == self.fin_seq:
            self._send_fin()
            return
        size = min(self.mss, self.snd_nxt - self.snd_una)
        if self.fin_seq is not None:
            size = min(size, max(self.fin_seq - self.snd_una, 0)) or size
        self._transmit_range(self.snd_una, size, is_retransmit=True)
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

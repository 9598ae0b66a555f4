"""The receive side: reassembly, message markers, SACK blocks, the window."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.net.packet import ACK, TcpSegment
from repro.sim.engine import Event
from repro.sim.queues import Store


class RxChunk(NamedTuple):
    """One ``recv()``: bytes delivered in order, the messages they completed."""

    nbytes: int
    objs: list


class Receiver:
    def __init__(self, recv_buf: int) -> None:
        self.recv_buf_capacity = recv_buf
        self.rcv_nxt = 0
        self.ooo: dict[int, int] = {}  # seq -> length (out-of-order runs)
        self._rx_markers: dict[int, Any] = {}  # end offset -> app object
        self.rcv_unread = 0    # in-order bytes delivered to the app inbox, unread
        self.ooo_bytes = 0     # bytes parked in the out-of-order store
        self.app_inbox: Store = Store(self.sim)
        self.peer_fin_seq: Optional[int] = None
        self._eof_delivered = False

    def recv(self) -> Event:
        """Event yielding an :class:`RxChunk` or ``None`` at EOF."""
        return self.app_inbox.get()

    def app_read(self, nbytes: int) -> None:
        """Called by the receive wrapper when the app consumes bytes."""
        window_before = self._advertised_window()
        self.rcv_unread -= nbytes
        if window_before < self.mss and self._advertised_window() >= self.mss:
            self._send_ack()  # window update

    def _advertised_window(self) -> int:
        # Canonical receive window: free space against *in-order* unread
        # data only. Out-of-order bytes do not shrink the advertisement
        # (shrinking it would make every hole-induced duplicate ACK look
        # like a window update and defeat fast retransmit).
        return max(self.recv_buf_capacity - self.rcv_unread, 0)

    def _send_ack(self) -> None:
        """ACK ``rcv_nxt``; SACK the first four out-of-order runs."""
        sack = ()
        if self.ooo:
            sack = tuple((s, s + sz) for s, sz in sorted(self.ooo.items())[:4])
        self._emit(TcpSegment(self.local_port, self.remote_port, self.snd_nxt,
                              self.rcv_nxt, ACK, self._advertised_window(), sack=sack))

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
            self.rcv_unread += total  # held until app reads
            self.app_inbox.put_nowait(RxChunk(total, allobjs))
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

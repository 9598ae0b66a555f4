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
from repro.net.packet import ACK, RST, TcpSegment, ipv4
from repro.net.tcp.connection import ConnectionReset, TcpConnection
from repro.sim.engine import Event
from repro.sim.queues import Store

__all__ = ["TcpConnection", "TcpLayer", "TcpListener", "ConnectionReset"]

EPHEMERAL_BASE = 33000
EPHEMERAL_LIMIT = 60999

# -- capacity accounting (shared with the fluid plane, repro.net.fluid) --
# Wire bytes added per MSS of goodput on a native path: TCP header (20)
# + IPv4 header (20) + Ethernet header (14) + FCS (4).
WIRE_OVERHEAD_TCP = 58


class TcpListener:
    """Passive endpoint; ``accept()`` yields established connections."""

    def __init__(self, layer: "TcpLayer", port: int, backlog: int = 64) -> None:
        self.layer = layer
        self.port = port
        self.accept_queue: Store = Store(layer.stack.sim, capacity=backlog)

    def accept(self) -> Event:
        return self.accept_queue.get()

    def close(self) -> None:
        self.layer.listeners.pop(self.port, None)


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
        self.segments_sent = 0

    # -- API ------------------------------------------------------------
    def listen(self, port: int, backlog: int = 64) -> TcpListener:
        if port in self.listeners:
            raise RuntimeError(f"TCP port {port} already listening on {self.stack.name}")
        listener = TcpListener(self, port, backlog)
        self.listeners[port] = listener
        return listener

    def connect(self, dst_ip: IPv4Address, dst_port: int,
                cc: Optional[str] = None) -> TcpConnection:
        """Start an active open; wait on ``conn.wait_established()``.
        ``cc`` picks the congestion-control algorithm for this
        connection (default: the layer's, normally "cubic")."""
        local_port = self._alloc_ephemeral(dst_ip, dst_port)
        conn = TcpConnection(self, local_port, dst_ip, dst_port, cc or self.cc)
        self.connections[conn.key] = conn
        conn._open()
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
        key = (seg.dst_port, packet.src, seg.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.on_segment(seg, packet.src)
            return
        listener = self.listeners.get(seg.dst_port)
        if listener is not None and seg.syn and not seg.ack_flag:
            conn = TcpConnection(self, seg.dst_port, packet.src, seg.src_port, self.cc)
            self.connections[key] = conn
            conn._open(seg)
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


def drain_bytes(conn: TcpConnection):
    """Process body: read until EOF; returns the byte count."""
    got = 0
    while True:
        chunk = yield conn.recv()
        if chunk is None:
            break
        nbytes = chunk.nbytes
        conn.app_read(nbytes)
        got += nbytes
    return got

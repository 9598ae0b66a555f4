"""UDP layer and sockets.

Sockets follow BSD semantics closely enough for the protocols above them
(STUN, hole punching, WAVNet tunnels, DHCP): bind to a local port,
``sendto`` any destination, receive (payload, source) tuples. Unbound-port
sends get an ephemeral port, which is what creates NAT mappings when the
datagram crosses a NAT box.

A socket is read one way: its owner sets ``sock.handler`` and is called
back from inside :meth:`UdpLayer.receive`. Code that *reacts* (a server,
a tunnel driver, an RPC endpoint) does its work there; code that *waits*
for a reply (an RPC call, a STUN or DHCP client) yields
``any_of([waiter, deadline])`` and lets its handler resolve ``waiter``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import IPv4Address
from repro.net.packet import Payload, UdpDatagram, ipv4

__all__ = ["UdpLayer", "UdpSocket"]

EPHEMERAL_BASE = 32768
EPHEMERAL_LIMIT = 60999


class UdpSocket:
    """A bound UDP endpoint.

    Every arriving datagram is passed to ``handler(payload, src_ip,
    src_port)`` at once; nothing is queued, and a datagram that finds no
    handler is dropped like one sent to an unbound port. A handler runs
    inside the stack's receive path, so it must drop — not dereference —
    payloads that are not its protocol's type.
    """

    def __init__(self, layer: "UdpLayer", port: int) -> None:
        self.layer = layer
        self.port = port
        self.handler: Optional[Callable[[Payload, IPv4Address, int], None]] = None
        self.closed = False

    def sendto(self, dst_ip: IPv4Address, dst_port: int, payload: Payload) -> None:
        if self.closed:
            raise RuntimeError("sendto on closed socket")
        self.layer.send(self.port, dst_ip, dst_port, payload)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.layer._unbind(self.port)


class UdpLayer:
    """Per-stack UDP demultiplexer."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self.sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rx_datagrams = 0
        self.rx_unmatched = 0

    # -- socket management ------------------------------------------------
    def bind(self, port: Optional[int] = None) -> UdpSocket:
        """Bind a socket to ``port`` (or an ephemeral port when None)."""
        if port is None:
            port = self._alloc_ephemeral()
        elif port in self.sockets:
            raise RuntimeError(f"UDP port {port} already bound on {self.stack.name}")
        sock = UdpSocket(self, port)
        self.sockets[port] = sock
        return sock

    def _alloc_ephemeral(self) -> int:
        start = self._next_ephemeral
        port = start
        while port in self.sockets:
            port += 1
            if port > EPHEMERAL_LIMIT:
                port = EPHEMERAL_BASE
            if port == start:
                raise RuntimeError("ephemeral UDP ports exhausted")
        self._next_ephemeral = port + 1
        if self._next_ephemeral > EPHEMERAL_LIMIT:
            self._next_ephemeral = EPHEMERAL_BASE
        return port

    def _unbind(self, port: int) -> None:
        self.sockets.pop(port, None)

    # -- datapath -----------------------------------------------------------
    def send(self, src_port: int, dst_ip: IPv4Address, dst_port: int, payload: Payload) -> None:
        datagram = UdpDatagram(src_port, dst_port, payload)
        src_ip = self.stack.source_ip_for(dst_ip)
        self.stack.send_ip(ipv4(src_ip, dst_ip, datagram))

    def receive(self, packet) -> None:
        datagram: UdpDatagram = packet.payload
        self.rx_datagrams += 1
        sock = self.sockets.get(datagram.dst_port)
        if sock is None or sock.handler is None:
            self.rx_unmatched += 1
            return
        sock.handler(datagram.payload, packet.src, datagram.src_port)

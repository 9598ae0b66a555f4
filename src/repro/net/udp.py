"""UDP layer and sockets.

Sockets follow BSD semantics closely enough for the protocols above them
(STUN, hole punching, WAVNet tunnels, DHCP): bind to a local port,
``sendto`` any destination, receive (payload, source) tuples. Unbound-port
sends get an ephemeral port, which is what creates NAT mappings when the
datagram crosses a NAT box.

A socket is read one of two ways. Code that *reacts* to datagrams (a
server, a tunnel driver, an RPC endpoint) sets ``sock.handler`` and is
called back from inside :meth:`UdpLayer.receive`; code that *waits* for a
reply (a STUN or DHCP client) leaves it unset and yields ``recvfrom()``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import IPv4Address
from repro.net.packet import Payload, UdpDatagram, ipv4
from repro.sim.engine import Event
from repro.sim.queues import Store

__all__ = ["UdpLayer", "UdpSocket"]

EPHEMERAL_BASE = 32768
EPHEMERAL_LIMIT = 60999


class UdpSocket:
    """A bound UDP endpoint.

    With ``handler`` set, every arriving datagram is passed to
    ``handler(payload, src_ip, src_port)`` at once and nothing is queued.
    A handler runs inside the stack's receive path, so it must drop — not
    dereference — payloads that are not its protocol's type. Without one,
    ``recvfrom()`` returns an event yielding the same triple from a
    bounded inbox (default 512 datagrams, drop-tail), mirroring a kernel
    socket buffer.
    """

    def __init__(self, layer: "UdpLayer", port: int, inbox_capacity: int = 512) -> None:
        self.layer = layer
        self.port = port
        self.inbox: Store = Store(layer.stack.sim, capacity=inbox_capacity)
        self.handler: Optional[Callable[[Payload, IPv4Address, int], None]] = None
        self.closed = False
        self.drops = 0
        self._taps: Optional[list] = None

    @property
    def name(self) -> str:
        return f"{self.layer.stack.name}:udp:{self.port}"

    def add_tap(self, tap) -> None:
        """Attach a :class:`~repro.obs.taps.PacketTap` capturing every
        datagram sent from or delivered to this socket."""
        if self._taps is None:
            self._taps = []
        self._taps.append(tap)

    def sendto(self, dst_ip: IPv4Address, dst_port: int, payload: Payload) -> None:
        if self.closed:
            raise RuntimeError("sendto on closed socket")
        if self._taps is not None:
            for tap in self._taps:
                tap.datagram(self.name, "tx", payload.size,
                             dst=f"{dst_ip}:{dst_port}",
                             info=type(payload.data).__name__)
        self.layer.send(self.port, dst_ip, dst_port, payload)

    def recvfrom(self) -> Event:
        if self.closed:
            raise RuntimeError("recvfrom on closed socket")
        return self.inbox.get()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.layer._unbind(self.port)

    def _enqueue(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        if self._taps is not None:
            for tap in self._taps:
                tap.datagram(self.name, "rx", payload.size,
                             src=f"{src_ip}:{src_port}",
                             info=type(payload.data).__name__)
        if self.handler is not None:
            self.handler(payload, src_ip, src_port)
        elif not self.inbox.try_put((payload, src_ip, src_port)):
            self.drops += 1


class UdpLayer:
    """Per-stack UDP demultiplexer."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self.sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rx_datagrams = 0
        self.rx_unmatched = 0

    # -- socket management ------------------------------------------------
    def bind(self, port: Optional[int] = None, inbox_capacity: int = 512) -> UdpSocket:
        """Bind a socket to ``port`` (or an ephemeral port when None)."""
        if port is None:
            port = self._alloc_ephemeral()
        elif port in self.sockets:
            raise RuntimeError(f"UDP port {port} already bound on {self.stack.name}")
        sock = UdpSocket(self, port, inbox_capacity=inbox_capacity)
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
        if sock is None or sock.closed:
            self.rx_unmatched += 1
            return
        sock._enqueue(datagram.payload, packet.src, datagram.src_port)

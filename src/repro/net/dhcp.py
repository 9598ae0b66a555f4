"""Minimal DHCP over the simulated L2.

The paper's claim that WAVNet connects hosts "as if to an Ethernet
switch" is exercised by running unmodified DHCP across the virtual
network: a client on one host's bridge obtains a lease from a server
living behind a tap on a different continent. Only DISCOVER → OFFER →
REQUEST → ACK is implemented (enough for the transparency demonstration
and tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Network, MacAddress
from repro.net.packet import IPv4Packet, Payload, UdpDatagram, frame_for
from repro.net.stack import Interface, NetworkStack

__all__ = ["DhcpClient", "DhcpLease", "DhcpServer"]

DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68
ZERO_IP = IPv4Address(0)
BCAST_IP = IPv4Address((1 << 32) - 1)
DHCP_MSG_SIZE = 300  # typical BOOTP payload


@dataclass(frozen=True)
class _DhcpMessage:
    op: str  # discover | offer | request | ack
    client_mac: MacAddress
    your_ip: Optional[IPv4Address] = None
    server_ip: Optional[IPv4Address] = None
    network: Optional[IPv4Network] = None
    xid: int = 0


@dataclass
class DhcpLease:
    ip: IPv4Address
    network: IPv4Network
    server: IPv4Address


class DhcpServer:
    """Leases addresses from a pool on one L2 segment."""

    def __init__(self, stack: NetworkStack, iface: Interface, pool: IPv4Network,
                 first_host: int = 100) -> None:
        if iface.ip is None:
            raise ValueError("DHCP server interface needs an address")
        self.stack = stack
        self.iface = iface
        self.pool = pool
        self.leases: dict[MacAddress, IPv4Address] = {}
        self._next = first_host
        self.offers_made = 0
        self.acks_sent = 0
        self.sock = stack.udp.bind(DHCP_SERVER_PORT)
        self.sock.handler = self._on_datagram

    def _allocate(self, mac: MacAddress) -> IPv4Address:
        existing = self.leases.get(mac)
        if existing is not None:
            return existing
        ip = self.pool.host(self._next)
        self._next += 1
        self.leases[mac] = ip
        return ip

    def _on_datagram(self, payload: Payload, _src_ip, _src_port) -> None:
        msg = payload.data
        if not isinstance(msg, _DhcpMessage):
            return  # anyone on the segment can send to port 67
        if msg.op == "discover":
            ip = self._allocate(msg.client_mac)
            self.offers_made += 1
            self._reply(_DhcpMessage("offer", msg.client_mac, your_ip=ip,
                                     server_ip=self.iface.ip, network=self.pool,
                                     xid=msg.xid), msg.client_mac)
        elif msg.op == "request":
            ip = self._allocate(msg.client_mac)
            self.acks_sent += 1
            self._reply(_DhcpMessage("ack", msg.client_mac, your_ip=ip,
                                     server_ip=self.iface.ip, network=self.pool,
                                     xid=msg.xid), msg.client_mac)

    def _reply(self, msg: _DhcpMessage, client_mac: MacAddress) -> None:
        # The client has no IP yet: answer to the broadcast address but
        # unicast the frame to the client's MAC (standard DHCP behaviour).
        datagram = UdpDatagram(DHCP_SERVER_PORT, DHCP_CLIENT_PORT,
                               Payload(DHCP_MSG_SIZE, data=msg, kind="dhcp"))
        packet = IPv4Packet(self.iface.ip, BCAST_IP, 17, datagram)
        self.iface.send_frame(frame_for(packet, self.iface.mac, client_mac))


class DhcpClient:
    """Acquires a lease and configures the interface with it.

    Each step waits like ``RpcEndpoint.call``: the process yields
    ``any_of([waiter, deadline])`` and the socket handler resolves
    ``waiter`` with the reply the step expects; anything else reaching
    UDP 68 is dropped.
    """

    def __init__(self, stack: NetworkStack, iface: Interface, timeout: float = 5.0,
                 retries: int = 3) -> None:
        self.stack = stack
        self.iface = iface
        self.timeout = timeout
        self.retries = retries
        self.lease: Optional[DhcpLease] = None
        # Drawn from a stream named after the host, so the wire carries
        # the same xid in every same-seed run.
        self._xid = int(stack.sim.rng.stream(f"dhcp.xid.{stack.name}").integers(1 << 32))
        self._want = ""
        self._waiter = None

    def _on_datagram(self, payload: Payload, _src_ip, _src_port) -> None:
        msg = payload.data
        waiter = self._waiter
        if (waiter is not None and isinstance(msg, _DhcpMessage)
                and msg.op == self._want and msg.xid == self._xid
                and msg.client_mac == self.iface.mac):
            self._waiter = None
            waiter.succeed(msg)

    def _exchange(self, msg: _DhcpMessage, want: str):
        """Process: broadcast ``msg``, return the ``want`` reply or None."""
        sim = self.stack.sim
        self._want = want
        self._waiter = waiter = sim.event()
        datagram = UdpDatagram(DHCP_CLIENT_PORT, DHCP_SERVER_PORT,
                               Payload(DHCP_MSG_SIZE, data=msg, kind="dhcp"))
        packet = IPv4Packet(ZERO_IP, BCAST_IP, 17, datagram)
        self.iface.send_frame(frame_for(packet, self.iface.mac, BROADCAST_MAC))
        yield sim.any_of([waiter, sim.timeout(self.timeout)])
        self._waiter = None
        return waiter.value if waiter.triggered else None

    def acquire(self):
        """Process: run the 4-way exchange; returns a DhcpLease or None."""
        sock = self.stack.udp.bind(DHCP_CLIENT_PORT)
        sock.handler = self._on_datagram
        mac, xid = self.iface.mac, self._xid
        try:
            for _attempt in range(self.retries):
                offer = yield from self._exchange(
                    _DhcpMessage("discover", mac, xid=xid), "offer")
                if offer is None:
                    continue
                ack = yield from self._exchange(
                    _DhcpMessage("request", mac, your_ip=offer.your_ip,
                                 server_ip=offer.server_ip, xid=xid), "ack")
                if ack is None:
                    continue
                self.lease = DhcpLease(ack.your_ip, ack.network, ack.server_ip)
                self.iface.configure(ack.your_ip, ack.network)
                self.stack.connected_route_for(self.iface)
                return self.lease
        finally:
            sock.close()
        return None

"""Per-host network stack: interfaces, ARP, routing, forwarding.

A :class:`NetworkStack` owns one or more :class:`Interface` objects, an
ARP cache, a longest-prefix-match routing table answered from a
per-destination cache, and the three transport layers. :class:`Host` is
a stack with forwarding disabled; :class:`Router` forwards.

The stack is deliberately interface-agnostic about what its ports attach
to — a wired :class:`~repro.net.l2.Link`, a software bridge port, or a
WAVNet tap. That is what lets a VM's stack stay untouched across live
migration: the VM's interface port is simply re-patched to a bridge on
the destination host.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Network, MacAddress
from repro.net.icmp import IcmpLayer
from repro.net.l2 import Port
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ArpPacket,
    EthernetFrame,
    IPv4Packet,
    frame_for,
)
from repro.net.tcp import TcpLayer
from repro.net.udp import UdpLayer
from repro.sim.engine import Simulator

__all__ = ["Host", "Interface", "NetworkStack", "Route", "Router"]

ARP_TIMEOUT = 1.0
ARP_RETRIES = 3
ARP_CACHE_TTL = 600.0
_UNCACHED = object()  # lookup_route's miss marker: None is a cached answer


class Interface:
    """A network interface: MAC + optional IP config + an L2 port."""

    def __init__(self, stack: "NetworkStack", name: str, mac: MacAddress) -> None:
        self.stack = stack
        self.name = name
        self.mac = mac
        self.ip: Optional[IPv4Address] = None
        self.network: Optional[IPv4Network] = None
        self.port = Port(self, name=f"{stack.name}.{name}")
        self.promiscuous = False
        self.rx_frames = 0
        self.tx_frames = 0

    def configure(self, ip: IPv4Address | str, network: IPv4Network | str) -> "Interface":
        ip = IPv4Address(ip)
        network = IPv4Network(network) if isinstance(network, str) else network
        if ip not in network:
            raise ValueError(f"{ip} not in {network}")
        self.ip = ip
        self.network = network
        self.stack._flush_caches()
        return self

    def deconfigure(self) -> None:
        self.ip = None
        self.network = None
        self.stack._flush_caches()

    # Port owner protocol -------------------------------------------------
    def on_frame(self, frame: EthernetFrame, port: Port) -> None:
        self.rx_frames += 1
        self.stack.receive_frame(self, frame)

    def send_frame(self, frame: EthernetFrame) -> None:
        self.tx_frames += 1
        self.port.transmit(frame)


class Route:
    """Routing table entry: destination prefix -> (interface, gateway)."""

    __slots__ = ("network", "iface", "gateway", "metric")

    def __init__(self, network: IPv4Network, iface: Interface,
                 gateway: Optional[IPv4Address] = None, metric: int = 0) -> None:
        self.network = network
        self.iface = iface
        self.gateway = gateway
        self.metric = metric


class NetworkStack:
    """IP stack shared by hosts, routers, and NAT boxes."""

    def __init__(self, sim: Simulator, name: str, forwarding: bool = False,
                 tcp_mss: int = 1460, tcp_send_buf: int = 262144,
                 tcp_recv_buf: int = 262144, tcp_cc: str = "cubic") -> None:
        self.sim = sim
        self.name = name
        self.forwarding = forwarding
        self.interfaces: list[Interface] = []
        self.routes: list[Route] = []
        self.arp_cache: dict[IPv4Address, tuple[MacAddress, float]] = {}
        self._arp_pending: dict[IPv4Address, list[tuple[Interface, IPv4Packet]]] = {}
        self.udp = UdpLayer(self)
        self.tcp = TcpLayer(self, mss=tcp_mss, send_buf=tcp_send_buf,
                            recv_buf=tcp_recv_buf, cc=tcp_cc)
        self.icmp = IcmpLayer(self)
        # NAT hooks: each returns the packet, None to drop it, or a rewrite
        # built with the TTL it leaves with (one packet per NAT crossing).
        self.pre_routing: Optional[Callable[[IPv4Packet, Interface], Optional[IPv4Packet]]] = None
        self.post_routing: Optional[
            Callable[[IPv4Packet, Interface, int], Optional[IPv4Packet]]] = None
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self._flush_caches()

    # -- configuration ------------------------------------------------------
    def add_interface(self, name: str, mac: MacAddress) -> Interface:
        iface = Interface(self, name, mac)
        self.interfaces.append(iface)
        return iface

    def interface(self, name: str) -> Interface:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        raise KeyError(f"no interface {name!r} on {self.name}")

    def add_route(self, network: IPv4Network | str, iface: Interface,
                  gateway: Optional[IPv4Address | str] = None, metric: int = 0) -> None:
        net = IPv4Network(network) if isinstance(network, str) else network
        gw = IPv4Address(gateway) if isinstance(gateway, str) else gateway
        self.routes.append(Route(net, iface, gw, metric))
        self.routes.sort(key=lambda r: (-r.network.prefix_len, r.metric))
        self._flush_caches()

    def _flush_caches(self) -> None:
        """Rebuild what is derived from the routes and interface addresses:
        ``lookup_route``'s per-destination answers, and ``_own``, the
        addresses delivered locally (each address and its subnet
        broadcast). Every writer of either calls this after its change."""
        self._route_for: dict[IPv4Address, Optional[Route]] = {}
        self._own = {a for i in self.interfaces if i.ip is not None
                     for a in (i.ip, i.network.broadcast)}

    def connected_route_for(self, iface: Interface) -> None:
        """Add the directly-connected route implied by the iface config."""
        if iface.network is None:
            raise ValueError(f"{iface.name} has no IP config")
        self.add_route(iface.network, iface)

    def lookup_route(self, dst: IPv4Address) -> Optional[Route]:
        route = self._route_for.get(dst, _UNCACHED)
        if route is _UNCACHED:
            route = self._route_for[dst] = next(
                (r for r in self.routes if dst in r.network), None)
        return route

    def source_ip_for(self, dst: IPv4Address) -> IPv4Address:
        """Source address selection: the out-interface's address."""
        route = self.lookup_route(dst)
        if route is not None and route.iface.ip is not None:
            return route.iface.ip
        for iface in self.interfaces:
            if iface.ip is not None:
                return iface.ip
        raise RuntimeError(f"{self.name}: no configured interface for {dst}")

    @property
    def ips(self) -> list[IPv4Address]:
        return [i.ip for i in self.interfaces if i.ip is not None]

    # -- transmit path ---------------------------------------------------
    def send_ip(self, packet: IPv4Packet) -> None:
        route = self.lookup_route(packet.dst)
        if route is None:
            self.packets_dropped += 1
            return
        self._send_via(route, packet, packet.ttl)

    def _send_via(self, route: Route, packet: IPv4Packet, ttl: int) -> None:
        iface = route.iface
        if self.post_routing is not None:
            maybe = self.post_routing(packet, iface, ttl)
            if maybe is None:
                self.packets_dropped += 1
                return
            packet = maybe
        if packet.ttl != ttl:
            packet = IPv4Packet(packet.src, packet.dst, packet.proto, packet.payload, ttl)
        self.packets_sent += 1
        dst = packet.dst
        if dst.is_broadcast or (iface.network is not None and dst is iface.network.broadcast):
            iface.send_frame(EthernetFrame(iface.mac, BROADCAST_MAC, ETHERTYPE_IPV4, packet))
            return
        next_hop = route.gateway if route.gateway is not None else dst
        mac = self._arp_lookup(next_hop)
        if mac is not None:
            iface.tx_frames += 1
            iface.port.transmit(EthernetFrame(iface.mac, mac, ETHERTYPE_IPV4, packet))
        else:
            self._arp_resolve(iface, next_hop, packet)

    # -- ARP ------------------------------------------------------------------
    def _arp_lookup(self, ip: IPv4Address) -> Optional[MacAddress]:
        entry = self.arp_cache.get(ip)
        if entry is None:
            return None
        mac, when = entry
        if self.sim.now - when > ARP_CACHE_TTL:
            del self.arp_cache[ip]
            return None
        return mac

    def _arp_resolve(self, iface: Interface, next_hop: IPv4Address, packet: IPv4Packet) -> None:
        pending = self._arp_pending.setdefault(next_hop, [])
        pending.append((iface, packet))
        if len(pending) == 1:
            self.sim.process(self._arp_requester(iface, next_hop), name=f"arp:{next_hop}")

    def _arp_requester(self, iface: Interface, target: IPv4Address):
        for _attempt in range(ARP_RETRIES):
            if iface.ip is None:
                break
            request = ArpPacket("request", iface.mac, iface.ip, None, target)
            iface.send_frame(frame_for(request, iface.mac, BROADCAST_MAC))
            yield self.sim.timeout(ARP_TIMEOUT)
            if target not in self._arp_pending:
                return  # resolved; queue flushed by the reply handler
        dropped = self._arp_pending.pop(target, [])
        self.packets_dropped += len(dropped)

    def _learn_arp(self, ip: IPv4Address, mac: MacAddress) -> None:
        self.arp_cache[ip] = (mac, self.sim.now)
        pending = self._arp_pending.pop(ip, None)
        if pending:
            for _iface, packet in pending:
                self.send_ip(packet)

    def gratuitous_arp(self, iface: Interface) -> None:
        """Announce (ip, mac) to the whole L2 segment — the post-migration
        broadcast of Fig 5."""
        if iface.ip is None:
            raise RuntimeError(f"{iface.name}: gratuitous ARP without IP")
        announce = ArpPacket("reply", iface.mac, iface.ip, BROADCAST_MAC, iface.ip)
        iface.send_frame(frame_for(announce, iface.mac, BROADCAST_MAC))

    def _handle_arp(self, iface: Interface, arp: ArpPacket) -> None:
        # Learn the sender mapping from every ARP we see (requests,
        # replies, and gratuitous announcements alike).
        self._learn_arp(arp.sender_ip, arp.sender_mac)
        if arp.op == "request" and iface.ip is not None and arp.target_ip == iface.ip:
            reply = ArpPacket("reply", iface.mac, iface.ip, arp.sender_mac, arp.sender_ip)
            iface.send_frame(frame_for(reply, iface.mac, arp.sender_mac))

    # -- receive path -----------------------------------------------------------
    def receive_frame(self, iface: Interface, frame: EthernetFrame) -> None:
        if frame.ethertype == ETHERTYPE_ARP:
            self._handle_arp(iface, frame.payload)
            return
        if frame.ethertype != ETHERTYPE_IPV4:
            return
        if not (frame.dst is iface.mac or frame.dst.is_broadcast or iface.promiscuous):
            return
        packet: IPv4Packet = frame.payload
        ttl = packet.ttl - 1  # if forwarded; a pre-routing rewrite carries it
        if self.pre_routing is not None:
            maybe = self.pre_routing(packet, iface)
            if maybe is None:
                self.packets_dropped += 1
                return
            packet = maybe
        if packet.dst.is_broadcast or packet.dst in self._own:
            self.deliver_local(packet)
        elif self.forwarding:
            self.forward(packet, ttl)
        else:
            self.packets_dropped += 1

    def deliver_local(self, packet: IPv4Packet) -> None:
        self.packets_received += 1
        if packet.proto == PROTO_UDP:
            self.udp.receive(packet)
        elif packet.proto == PROTO_TCP:
            self.tcp.receive(packet)
        elif packet.proto == PROTO_ICMP:
            self.icmp.receive(packet)

    def forward(self, packet: IPv4Packet, ttl: int) -> None:
        if ttl <= 0:
            self.packets_dropped += 1
            return
        route = self.lookup_route(packet.dst)
        if route is None:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self._send_via(route, packet, ttl)


class Host:
    """An end host: a node with a non-forwarding stack.

    ``cpu_factor`` scales modeled computation times (used by the MPI
    kernels to reflect the heterogeneous testbed of Table I).
    """

    def __init__(self, sim: Simulator, name: str, mac_mint: Callable[[], MacAddress],
                 cpu_factor: float = 1.0, **stack_kwargs: Any) -> None:
        self.sim = sim
        self.name = name
        self.mac_mint = mac_mint
        self.cpu_factor = cpu_factor
        self.stack = NetworkStack(sim, name, forwarding=False, **stack_kwargs)

    def add_nic(self, name: str = "eth0") -> Interface:
        return self.stack.add_interface(name, self.mac_mint())

    # Convenience pass-throughs used everywhere in apps/benchmarks.
    @property
    def udp(self) -> UdpLayer:
        return self.stack.udp

    @property
    def tcp(self) -> TcpLayer:
        return self.stack.tcp


class Router(Host):
    """A forwarding node (stack with ``forwarding=True``)."""

    def __init__(self, sim: Simulator, name: str, mac_mint: Callable[[], MacAddress],
                 **stack_kwargs: Any) -> None:
        super().__init__(sim, name, mac_mint, **stack_kwargs)
        self.stack.forwarding = True

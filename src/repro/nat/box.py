"""The NAT gateway node.

A :class:`NatBox` is a router whose pre-/post-routing hooks rewrite
addresses, one mapping table per protocol (ports are per-protocol
namespaces). Behaviour — endpoint-independent vs per-destination
mapping, inbound filtering — is governed by :class:`NatType`.

ICMP echo is NATed on the ``ident`` field, as real NAT implementations
do, so ping works from behind the NAT.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.nat.mapping import MappingTable
from repro.nat.types import NatType, split_nat_spec
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpMessage,
    IPv4Packet,
    TcpSegment,
    UdpDatagram,
)
from repro.net.stack import Interface, Router
from repro.sim.engine import Simulator
from repro.sim.lifecycle import Component

__all__ = ["NatBox"]

# Idle timeouts of TCP and ICMP bindings; the UDP one is the knob the
# scenarios vary (keepalive experiments), so it stays a parameter.
TCP_TIMEOUT = 3600.0
ICMP_TIMEOUT = 30.0


class NatBox(Router, Component):
    """NAT/firewall gateway between an inside LAN and the public Internet.

    As a lifecycle :class:`~repro.sim.lifecycle.Component` (kind
    ``nat``): ``crash`` powers the box off — every mapping table is
    flushed (bindings are RAM) and all traffic is dropped; ``restore``
    powers it back on with empty tables, so hosts behind it must re-open
    their mappings with outbound traffic. :meth:`reboot` is the common
    fast cycle (crash + immediate restore): connectivity blips, but the
    lasting damage is the mapping flush.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac_mint: Callable[[], MacAddress],
        nat_type: NatType | str = NatType.PORT_RESTRICTED,
        udp_timeout: float = 60.0,
    ) -> None:
        super().__init__(sim, name, mac_mint)
        Component.__init__(self, sim, "nat", name)
        # Combined specs ("symmetric-sequential") name the port-allocation
        # policy; a bare symmetric NAT allocates at random (that
        # unpredictability is what defeats classic hole punching), every
        # other kind sequentially.
        self.nat_type, policy = split_nat_spec(nat_type)
        if self.nat_type is NatType.OPEN:
            raise ValueError("NatBox cannot model an OPEN (no-NAT) path")
        if policy is None:
            policy = "random" if self.nat_type is NatType.SYMMETRIC else "sequential"
        # Per-box deterministic RNG stream: allocation order depends only
        # on the box name, never on global draw order.
        port_rng = sim.rng.stream(f"nat.ports.{name}")
        if policy != "random":
            port_rng = None
        metrics = sim.metrics.scope(f"nat.{name}")
        self.metrics = metrics
        self.udp_mappings = MappingTable(self.nat_type, udp_timeout, port_rng=port_rng,
                                         metrics=metrics.scope("udp"))
        self.tcp_mappings = MappingTable(self.nat_type, TCP_TIMEOUT, first_port=30000,
                                         port_rng=port_rng, metrics=metrics.scope("tcp"))
        self.icmp_mappings = MappingTable(self.nat_type, ICMP_TIMEOUT, first_port=40000,
                                          port_rng=port_rng, metrics=metrics.scope("icmp"))
        self._tables = {PROTO_UDP: self.udp_mappings, PROTO_TCP: self.tcp_mappings,
                        PROTO_ICMP: self.icmp_mappings}
        self.inside: Optional[Interface] = None
        self.outside: Optional[Interface] = None
        self.inside_network: Optional[IPv4Network] = None
        self.public_ip: Optional[IPv4Address] = None
        self.translated_out = 0
        self.translated_in = 0
        self.dropped_unsolicited = 0
        self.stack.pre_routing = self._pre_routing
        self.stack.post_routing = self._post_routing

    # -- lifecycle ---------------------------------------------------------
    def _on_crash(self) -> None:
        for table in self._tables.values():
            table.flush()

    def _on_stop(self) -> None:
        pass  # graceful stop keeps tables; traffic still drops while down

    def reboot(self) -> None:
        """Power-cycle: flush all mapping tables, forwarding resumes at
        once (the blackout window is below frame resolution)."""
        self.crash()
        self.restore()

    # -- setup -------------------------------------------------------------
    def add_inside(self, ip: IPv4Address | str, network: IPv4Network | str) -> Interface:
        self.inside = self.stack.add_interface("inside", self.mac_mint())
        self.inside.configure(ip, network)
        self.inside_network = self.inside.network
        self.stack.connected_route_for(self.inside)
        return self.inside

    def add_outside(self, ip: IPv4Address | str, network: IPv4Network | str = "0.0.0.0/0") -> Interface:
        self.outside = self.stack.add_interface("outside", self.mac_mint())
        self.outside.configure(ip, network)
        self.public_ip = self.outside.ip
        self.stack.add_route("0.0.0.0/0", self.outside)
        return self.outside

    # -- datapath hooks ------------------------------------------------------
    def _pre_routing(self, packet: IPv4Packet, iface: Interface) -> Optional[IPv4Packet]:
        """Inbound DNAT: rewrite public (ip, port) back to the inside host,
        with the TTL it is forwarded with."""
        if not self.running:
            return None  # box is down/crashed: everything blackholes
        if iface is not self.outside or packet.dst != self.public_ip:
            return packet
        proto = packet.proto
        table = self._tables.get(proto)
        if table is None:
            return packet
        payload = packet.payload
        if proto == PROTO_ICMP:
            if payload.kind == "echo-request":
                return packet  # ping to the NAT itself: answer locally
            ext_port, src_port = payload.ident, 0
        else:
            ext_port, src_port = payload.dst_port, payload.src_port
        mapping = table.inbound(ext_port, packet.src, src_port, self.sim.now)
        if mapping is None:
            self.dropped_unsolicited += 1
            return None
        self.translated_in += 1
        return IPv4Packet(packet.src, mapping.internal_ip, proto,
                          _with_port(payload, proto, dst_port=mapping.internal_port),
                          packet.ttl - 1)

    def _post_routing(self, packet: IPv4Packet, iface: Interface,
                      ttl: Optional[int] = None) -> Optional[IPv4Packet]:
        """Outbound SNAT: rewrite inside (ip, port) to the public endpoint,
        leaving with TTL ``ttl`` (by default the packet's own)."""
        if not self.running:
            return None
        if iface is not self.outside:
            return packet
        if self.inside_network is None or packet.src not in self.inside_network:
            return packet  # NAT's own traffic
        proto = packet.proto
        table = self._tables.get(proto)
        if table is None:
            return None  # unsupported protocol cannot traverse
        payload = packet.payload
        if proto == PROTO_ICMP:
            int_port, dst_port = payload.ident, 0  # destination "port" is 0
        else:
            int_port, dst_port = payload.src_port, payload.dst_port
        mapping = table.outbound(packet.src, int_port, packet.dst, dst_port, self.sim.now)
        self.translated_out += 1
        return IPv4Packet(self.public_ip, packet.dst, proto,
                          _with_port(payload, proto, src_port=mapping.external_port),
                          packet.ttl if ttl is None else ttl)

    def external_endpoint_for(
        self, int_ip: IPv4Address, int_port: int, dst_ip: IPv4Address, dst_port: int
    ) -> tuple[IPv4Address, int]:
        """Test/diagnostic helper: the public endpoint an outbound UDP flow
        would be seen as (what STUN discovers)."""
        mapping = self.udp_mappings.outbound(int_ip, int_port, dst_ip, dst_port, self.sim.now)
        return (self.public_ip, mapping.external_port)


def _with_port(payload, proto: int, src_port: Optional[int] = None,
               dst_port: Optional[int] = None):
    """A new transport payload with the SNAT ``src_port`` or the DNAT
    ``dst_port`` set (wire formats are never mutated); ICMP echo is NATed
    on its ``ident`` in both directions."""
    if proto == PROTO_ICMP:
        return IcmpMessage(payload.kind, dst_port if src_port is None else src_port,
                           payload.seq, payload.payload_size, payload.timestamp)
    src = payload.src_port if src_port is None else src_port
    dst = payload.dst_port if dst_port is None else dst_port
    if proto == PROTO_UDP:
        return UdpDatagram(src, dst, payload.payload)
    return TcpSegment(src, dst, payload.seq, payload.ack, payload.flags, payload.window,
                      payload.payload_size, payload.payload_data, payload.sack)

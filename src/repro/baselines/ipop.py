"""IPOP-style IP-over-P2P overlay — the paper's comparator (§IV).

We implement the *structural* properties the paper attributes IPOP's
losses to, not a bug-for-bug copy:

1. **Data path through a P2P routing layer.** Every packet is processed
   by a user-level routing stack (C#/Brunet era) with a serialized
   per-packet CPU cost at the endpoints and at every relay (one
   :class:`~repro.sim.queues.Serializer` per node, shared by both
   directions and by relayed traffic — one CPU). This caps packet rate
   and is what makes IPOP "less than 20% of the native performance" on
   uncongested links (Fig 7).
2. **Structured ring overlay with bounded direct connections.** Nodes
   keep successor/predecessor + a few shortcuts; direct (shortcut)
   connections to arbitrary peers are created on demand but capped at
   ``max_direct`` — beyond that, traffic relays through intermediate
   hosts, degrading with cluster size (Fig 8).
3. **Layer-3 tunneling with a DHT-backed IP->node directory that goes
   stale on VM migration.** The overlay keeps routing to the source host
   after the VM moves (Fig 9's stall); re-registration requires an IPOP
   restart, which we deliberately do not perform (matching the paper's
   observation).
4. **Per-packet P2P header** (~70 B Brunet framing) on top of UDP/IP.

Nodes communicate over the same simulated physical network as WAVNet,
including NAT traversal (scripted simultaneous hellos for bootstrap
edges, overlay-relayed hello exchange for on-demand links).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.l2 import Bridge, Port, patch
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ArpPacket,
    EthernetFrame,
    IPv4Packet,
    Payload,
    frame_for,
)
from repro.net.stack import Host, Interface
from repro.sim.queues import Serializer

__all__ = ["IpopConfig", "IpopDirectory", "IpopNode", "IpopOverlay"]

IPOP_PORT = 15151
VIRTUAL_NETWORK = IPv4Network("10.128.0.0/16")  # the overlay's L3 subnet
PHANTOM_GATEWAY = VIRTUAL_NETWORK.broadcast + (-1)  # .254: the tun's next hop

# Calibration. A TCP round trip costs four stack services (data out at
# the source, data in + ACK out at the sink, ACK in at the source), so
# sustained throughput caps at MSS*8 / (4*(ENDPOINT_COST +
# CPU_JITTER_MEAN)) ~ 11-13 Mbps — Fig 7's "<20% of native" on fast
# links, near-native on slow ones. The same constants put the ping
# overhead at ~0.9 ms RTT, matching Table II's worst case.
ENDPOINT_COST = 125e-6   # user-level per-packet cost at src/dst
RELAY_COST = 150e-6      # per-packet cost at each relay hop
# Service-time jitter (scheduler + GC of the managed runtime); overload
# surfaces as queueing delay, not loss.
CPU_JITTER_MEAN = 100e-6
HEADER_BYTES = 70        # Brunet P2P framing per packet
# The user-level stack buffers deeply (managed-runtime queues): overload
# shows up as queueing *delay*, which window-limits TCP at the service
# rate — not as random loss, which would collapse WAN TCP entirely (and
# contradict the paper's Table II latencies).
CPU_QUEUE_CAPACITY = 2048  # packets queued at the user-level stack
# Brunet framing limits P2P packets to ~1280 B; a full-size 1500 B host
# packet is fragmented into two P2P packets, each paying the per-packet
# stack cost and header. Pings and ACKs fit in one.
P2P_MTU = 1280


@dataclass(frozen=True)
class IpopConfig:
    """The overlay's connection budget (the per-packet costs and framing
    are the module constants above)."""

    max_direct: int = 6             # on-demand direct connections per node
    n_shortcuts: int = 2            # static ring shortcuts


@dataclass(frozen=True)
class _IpopPacket:
    """P2P-framed IP packet in flight between overlay nodes."""

    target_node: str
    packet: IPv4Packet
    hops: int = 0
    fragments: int = 1

    @property
    def size(self) -> int:
        return self.fragments * HEADER_BYTES + self.packet.size


@dataclass(frozen=True)
class _Hello:
    sender: str


class IpopDirectory:
    """The DHT-backed IP -> node mapping.

    Entries are written at attach time and — deliberately — never
    invalidated on migration (paper §IV point 3)."""

    def __init__(self) -> None:
        self.entries: dict[IPv4Address, str] = {}

    def register(self, ip: IPv4Address, node_name: str) -> None:
        self.entries[ip] = node_name

    def lookup(self, ip: IPv4Address) -> Optional[str]:
        return self.entries.get(ip)


def ring_position(name: str) -> float:
    return (zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF) / 2**32


def ring_distance(a: float, b: float) -> float:
    d = abs(a - b)
    return min(d, 1.0 - d)


class IpopNode:
    """One IPOP endpoint on a physical host."""

    def __init__(self, overlay: "IpopOverlay", host: Host,
                 virtual_ip: IPv4Address | str) -> None:
        self.overlay = overlay
        self.config = overlay.config
        self.sim = host.sim
        self.host = host
        self.name = host.name
        self.ring_id = ring_position(self.name)
        self.virtual_ip = IPv4Address(virtual_ip)
        self.sock = host.udp.bind(IPOP_PORT)
        self.sock.handler = self._on_datagram
        self.public_endpoint: tuple[IPv4Address, int] = (host.stack.ips[0], IPOP_PORT)

        # Overlay links: peer name -> reachable endpoint.
        self.neighbors: dict[str, tuple[IPv4Address, int]] = {}   # ring edges
        self.direct: dict[str, tuple[IPv4Address, int]] = {}      # on-demand
        self.pending_ring: set[str] = set()  # bootstrap edges being punched
        self._punching: set[str] = set()

        # Local delivery: IP -> callable(IPv4Packet).
        self.local_ips: dict[IPv4Address, Callable[[IPv4Packet], None]] = {}

        # Serialized user-level packet processing (the C# stack): one
        # Serializer for outbound, inbound and relayed packets alike.
        self._cpu = Serializer(self.sim, CPU_QUEUE_CAPACITY,
                               self._cpu_time, self._cpu_done)
        self._cpu_rng = self.sim.rng.stream(f"ipop.cpu.{self.name}")
        self.packets_relayed = 0
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

        # L3 tun into the host stack.
        self.tun = self._make_tun()
        self.local_ips[self.virtual_ip] = self._deliver_to_stack

        # Local bridge for attached VMs (interface-mode stand-in).
        self.bridge = Bridge(self.sim, name=f"{self.name}.ipopbr")
        self._bridge_port = Port(self, name=f"{self.name}.ipop.brport")
        patch(self._bridge_port, self.bridge.new_port("ipop"))
        self._bridge_mac = host.mac_mint()
        self._vm_macs: dict[IPv4Address, MacAddress] = {}

    # ------------------------------------------------------------------
    # tun plumbing
    # ------------------------------------------------------------------
    def _make_tun(self) -> Interface:
        stack = self.host.stack
        tun = stack.add_interface("ipop0", self.host.mac_mint())
        tun.configure(self.virtual_ip, VIRTUAL_NETWORK)
        # Route the whole virtual subnet into the tun via a phantom
        # gateway with a static ARP entry (tun devices have no L2).
        stack.add_route(VIRTUAL_NETWORK, tun, gateway=PHANTOM_GATEWAY)
        stack.arp_cache[PHANTOM_GATEWAY] = (MacAddress(0x02_FF_FF_00_00_01), float("inf"))
        tun.port.connect(self._on_tun_frame)
        return tun

    def _on_tun_frame(self, frame: EthernetFrame) -> None:
        if frame.ethertype != ETHERTYPE_IPV4:
            return
        self._out(frame.payload)

    def _deliver_to_stack(self, packet: IPv4Packet) -> None:
        self.host.stack.deliver_local(packet)

    # ------------------------------------------------------------------
    # VM attachment (interface-mode stand-in)
    # ------------------------------------------------------------------
    def attach_vm_port(self, port: Port, vm_ip: IPv4Address, vm_mac: MacAddress,
                       label: str = "vif") -> None:
        """Plug a VM vif into the local IPOP bridge and register its IP
        in the (never-invalidated) directory."""
        patch(port, self.bridge.new_port(label))
        self._vm_macs[vm_ip] = vm_mac
        self.local_ips[vm_ip] = self._deliver_to_vm_factory(vm_ip)
        self.overlay.directory.register(vm_ip, self.name)

    def detach_vm_ip(self, vm_ip: IPv4Address) -> None:
        """Local state forgets the VM (it migrated away); the directory
        entry is NOT removed — that is IPOP's migration blindness."""
        self.local_ips.pop(vm_ip, None)
        self._vm_macs.pop(vm_ip, None)

    def _deliver_to_vm_factory(self, vm_ip: IPv4Address):
        def deliver(packet: IPv4Packet) -> None:
            mac = self._vm_macs.get(vm_ip)
            if mac is None:
                self.packets_dropped += 1
                return
            self._bridge_port.transmit(frame_for(packet, self._bridge_mac, mac))
        return deliver

    # Bridge port owner protocol: VM-originated traffic + proxy ARP.
    def on_frame(self, frame: EthernetFrame, port: Port) -> None:
        if frame.ethertype == ETHERTYPE_ARP:
            arp: ArpPacket = frame.payload
            if arp.op == "request" and arp.target_ip not in self._vm_macs:
                reply = ArpPacket("reply", self._bridge_mac, arp.target_ip,
                                  arp.sender_mac, arp.sender_ip)
                self._bridge_port.transmit(frame_for(reply, self._bridge_mac, arp.sender_mac))
            return
        if frame.ethertype != ETHERTYPE_IPV4:
            return
        packet: IPv4Packet = frame.payload
        handler = self.local_ips.get(packet.dst)
        if handler is not None:
            handler(packet)
        elif packet.dst not in self._vm_macs:
            self._out(packet)

    # ------------------------------------------------------------------
    # user-level packet processing
    # ------------------------------------------------------------------
    def _process(self, step, item, cost: float) -> None:
        """Run ``step(item)`` once the CPU has spent ``cost`` seconds
        (plus jitter, drawn as the work enters service) on it."""
        self._cpu.offer((step, item, cost))

    def _out(self, packet: IPv4Packet) -> None:
        self._process(self._route_out, packet,
                      self._fragments_of(packet) * ENDPOINT_COST)

    def _cpu_time(self, work) -> float:
        return work[2] + float(self._cpu_rng.exponential(CPU_JITTER_MEAN))

    def _cpu_done(self, work) -> None:
        step, item, _cost = work
        step(item)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _fragments_of(self, packet: IPv4Packet) -> int:
        return max(1, -(-packet.size // P2P_MTU))

    def _route_out(self, packet: IPv4Packet) -> None:
        target = self.overlay.directory.lookup(packet.dst)
        if target is None:
            self.packets_dropped += 1
            return
        if target == self.name:
            self._deliver(_IpopPacket(target, packet))
            return
        self.packets_sent += 1
        self._forward(_IpopPacket(target, packet,
                                  fragments=self._fragments_of(packet)))

    def _forward(self, p2p: _IpopPacket) -> None:
        if p2p.hops > 32:
            self.packets_dropped += 1
            return
        endpoint = self.direct.get(p2p.target_node) or self.neighbors.get(p2p.target_node)
        if endpoint is None:
            self._maybe_open_direct(p2p.target_node)
            endpoint = self._greedy_next_hop(p2p.target_node)
        if endpoint is None:
            self.packets_dropped += 1
            return
        self.sock.sendto(endpoint[0], endpoint[1],
                         Payload(p2p.size, data=_IpopPacket(
                             p2p.target_node, p2p.packet,
                             p2p.hops + 1, p2p.fragments), kind="ipop"))

    def _greedy_next_hop(self, target_node: str) -> Optional[tuple[IPv4Address, int]]:
        target_pos = self.overlay.ring_id_of(target_node)
        if target_pos is None:
            return None
        best_name, best_d = None, ring_distance(self.ring_id, target_pos)
        for name in list(self.neighbors) + list(self.direct):
            pos = self.overlay.ring_id_of(name)
            if pos is None:
                continue
            d = ring_distance(pos, target_pos)
            if d < best_d - 1e-15:
                best_d, best_name = d, name
        if best_name is None:
            return None
        return self.direct.get(best_name) or self.neighbors.get(best_name)

    def _deliver(self, p2p: _IpopPacket) -> None:
        handler = self.local_ips.get(p2p.packet.dst)
        if handler is None:
            self.packets_dropped += 1  # stale directory entry (migration!)
            return
        self.packets_delivered += 1
        handler(p2p.packet)

    # ------------------------------------------------------------------
    # on-demand direct links (bounded)
    # ------------------------------------------------------------------
    def _maybe_open_direct(self, target_node: str) -> None:
        if (target_node in self.direct or target_node in self._punching
                or len(self.direct) >= self.config.max_direct):
            return
        endpoint = self.overlay.endpoint_of(target_node)
        if endpoint is None:
            return
        self._punching.add(target_node)
        self.sim.process(self._punch(target_node, endpoint),
                         name=f"ipop-punch:{self.name}->{target_node}")

    def _punch(self, target_node: str, endpoint):
        # Direct hello opens our NAT toward the peer; the routed request
        # asks the peer to hello back, opening theirs.
        for _ in range(3):
            self.sock.sendto(endpoint[0], endpoint[1],
                             Payload(24, data=_Hello(self.name), kind="ipop"))
            relay = self._greedy_next_hop(target_node)
            if relay is not None:
                self.sock.sendto(relay[0], relay[1],
                                 Payload(24, data=_RoutedHello(target_node, self.name),
                                         kind="ipop"))
            yield self.sim.timeout(0.3)
            if target_node in self.direct:
                break
        self._punching.discard(target_node)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_datagram(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        body = payload.data
        if isinstance(body, _IpopPacket):
            if body.target_node == self.name:
                self._process(self._deliver, body,
                              body.fragments * ENDPOINT_COST)
            else:
                self.packets_relayed += 1
                self._process(self._forward, body,
                              body.fragments * RELAY_COST)
        elif isinstance(body, _Hello):
            if body.sender in self.pending_ring or body.sender in self.neighbors:
                new = body.sender not in self.neighbors
                self.neighbors[body.sender] = (src_ip, src_port)
                if new:
                    self.sock.sendto(src_ip, src_port,
                                     Payload(24, data=_Hello(self.name), kind="ipop"))
            elif len(self.direct) < self.config.max_direct or body.sender in self.direct:
                already = body.sender in self.direct
                self.direct[body.sender] = (src_ip, src_port)
                if not already:
                    self.sock.sendto(src_ip, src_port,
                                     Payload(24, data=_Hello(self.name), kind="ipop"))
        elif isinstance(body, _RoutedHello):
            if body.target_node == self.name:
                peer_ep = self.overlay.endpoint_of(body.requester)
                if peer_ep is not None:
                    self.sock.sendto(peer_ep[0], peer_ep[1],
                                     Payload(24, data=_Hello(self.name), kind="ipop"))
            else:
                nxt = self._greedy_next_hop(body.target_node)
                if nxt is not None:
                    self.sock.sendto(nxt[0], nxt[1], payload)


@dataclass(frozen=True)
class _RoutedHello:
    target_node: str
    requester: str


class IpopOverlay:
    """Coordinator: membership, ring construction, shared directory."""

    def __init__(self, sim, config: Optional[IpopConfig] = None) -> None:
        self.sim = sim
        self.config = config or IpopConfig()
        self.directory = IpopDirectory()
        self.nodes: dict[str, IpopNode] = {}

    def add_node(self, host: Host, virtual_ip: IPv4Address | str,
                 nat=None) -> IpopNode:
        """``nat`` is the host's NatBox (if any) so the overlay can learn
        the node's public endpoint at build time."""
        node = IpopNode(self, host, virtual_ip)
        node._nat = nat
        self.nodes[node.name] = node
        self.directory.register(node.virtual_ip, node.name)
        return node

    def ring_id_of(self, name: str) -> Optional[float]:
        node = self.nodes.get(name)
        return node.ring_id if node else None

    def endpoint_of(self, name: str) -> Optional[tuple[IPv4Address, int]]:
        node = self.nodes.get(name)
        if node is None:
            return None
        return node.public_endpoint

    def _discover_public_endpoints(self) -> None:
        """Each node learns its NATed public endpoint (IPOP uses its own
        STUN-ish discovery; we read it from the NAT model directly)."""
        for node in self.nodes.values():
            nat = getattr(node, "_nat", None)
            if nat is not None:
                ip, port = nat.external_endpoint_for(
                    node.host.stack.ips[0], IPOP_PORT,
                    IPv4Address("9.1.0.1"), 1)
                node.public_endpoint = (ip, port)

    def build_ring(self):
        """Process: establish ring + shortcut edges (bootstrap punching:
        both endpoints hello simultaneously, as IPOP's bootstrap does)."""
        self._discover_public_endpoints()
        ordered = sorted(self.nodes.values(), key=lambda n: n.ring_id)
        n = len(ordered)
        edges: set[tuple[str, str]] = set()
        for i, node in enumerate(ordered):
            succ = ordered[(i + 1) % n]
            edges.add(tuple(sorted((node.name, succ.name))))
            rng = self.sim.rng.stream(f"ipop.shortcuts.{node.name}")
            for _ in range(self.config.n_shortcuts):
                other = ordered[int(rng.integers(n))]
                if other.name != node.name:
                    edges.add(tuple(sorted((node.name, other.name))))
        for a_name, b_name in sorted(edges):
            self.nodes[a_name].pending_ring.add(b_name)
            self.nodes[b_name].pending_ring.add(a_name)
        for a_name, b_name in sorted(edges):
            a, b = self.nodes[a_name], self.nodes[b_name]
            for _ in range(2):  # simultaneous hellos punch both NATs
                a.sock.sendto(b.public_endpoint[0], b.public_endpoint[1],
                              Payload(24, data=_Hello(a.name), kind="ipop"))
                b.sock.sendto(a.public_endpoint[0], a.public_endpoint[1],
                              Payload(24, data=_Hello(b.name), kind="ipop"))
                yield self.sim.timeout(0.2)
        yield self.sim.timeout(0.2)
        for node in self.nodes.values():
            node.pending_ring.clear()

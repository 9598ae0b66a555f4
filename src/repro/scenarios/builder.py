"""Generic topology assembly helpers.

These functions wire hosts, switches, NAT gateways, and the WAN cloud
together so tests and benchmarks never hand-build plumbing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import IPv4Address, IPv4Network, mac_factory
from repro.net.l2 import Link, Switch
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.sim.engine import Simulator

__all__ = ["Lan", "NattedSite", "host_pair", "make_lan", "make_natted_site",
           "make_public_host", "named_mac_factory"]


def named_mac_factory(name: str):
    """A MAC factory whose prefix is derived from ``name``, so separately
    built sites/LANs never mint colliding addresses."""
    digest = zlib.crc32(name.encode("utf-8")) & 0x3FFFFF
    return mac_factory(prefix=(0x02 << 40) | (digest << 18))


def make_public_host(
    sim: Simulator,
    cloud: WanCloud,
    name: str,
    ip: str,
    network: str = "8.0.0.0/8",
    access_latency: float = 0.0005,
    access_bandwidth_bps: Optional[float] = 1e9,
    queue_capacity: int = 128,
    **stack_kwargs,
) -> Host:
    """A host with a public address attached directly to the WAN cloud
    (rendezvous servers, STUN servers, public test endpoints)."""
    host = Host(sim, name, named_mac_factory(name), **stack_kwargs)
    iface = host.add_nic().configure(ip, network)
    host.stack.connected_route_for(iface)
    host.stack.add_route("0.0.0.0/0", iface)
    Link(sim, iface.port, cloud.attach(name), latency=access_latency,
         bandwidth_bps=access_bandwidth_bps, queue_capacity=queue_capacity,
         name=f"{name}.access")
    return host


def host_pair(
    sim: Simulator,
    latency: float = 0.001,
    bandwidth_bps: Optional[float] = 100e6,
    loss: float = 0.0,
    queue_capacity: int = 128,
    subnet: str = "10.0.0.0/24",
    name_a: str = "hostA",
    name_b: str = "hostB",
    **stack_kwargs,
) -> tuple[Host, Host, Link]:
    """Two hosts on a direct link — the smallest usable topology."""
    mint = mac_factory()
    net = IPv4Network(subnet)
    a = Host(sim, name_a, mint, **stack_kwargs)
    b = Host(sim, name_b, mint, **stack_kwargs)
    ia = a.add_nic().configure(net.host(1), net)
    ib = b.add_nic().configure(net.host(2), net)
    a.stack.connected_route_for(ia)
    b.stack.connected_route_for(ib)
    link = Link(sim, ia.port, ib.port, latency=latency, bandwidth_bps=bandwidth_bps,
                loss=loss, queue_capacity=queue_capacity, name=f"{name_a}-{name_b}")
    return a, b, link


@dataclass
class Lan:
    """A switched LAN of hosts in one subnet."""

    switch: Switch
    network: IPv4Network
    hosts: list = field(default_factory=list)
    links: list = field(default_factory=list)


def make_lan(
    sim: Simulator,
    n_hosts: int,
    subnet: str = "192.168.1.0/24",
    name: str = "lan",
    link_latency: float = 0.0001,
    link_bandwidth_bps: Optional[float] = 1e9,
    first_host_index: int = 10,
    mint=None,
    **stack_kwargs,
) -> Lan:
    """``n_hosts`` hosts attached to one learning switch."""
    mint = mint or named_mac_factory(name)
    net = IPv4Network(subnet)
    switch = Switch(sim, name=f"{name}.sw")
    lan = Lan(switch=switch, network=net)
    for i in range(n_hosts):
        host = Host(sim, f"{name}.h{i}", mint, **stack_kwargs)
        iface = host.add_nic().configure(net.host(first_host_index + i), net)
        host.stack.connected_route_for(iface)
        link = Link(sim, iface.port, switch.new_port(), latency=link_latency,
                    bandwidth_bps=link_bandwidth_bps, name=f"{name}.h{i}-sw")
        lan.hosts.append(host)
        lan.links.append(link)
    return lan


@dataclass
class NattedSite:
    """A site: private LAN behind a NAT gateway on the WAN cloud."""

    name: str
    nat: object  # repro.nat.box.NatBox
    lan: Lan
    access_link: Link
    public_ip: IPv4Address

    @property
    def hosts(self) -> list:
        return self.lan.hosts


def make_natted_site(
    sim: Simulator,
    cloud: WanCloud,
    name: str,
    public_ip: str,
    nat_type: str = "port-restricted",
    lan_subnet: str = "192.168.1.0/24",
    n_hosts: int = 1,
    access_bandwidth_bps: Optional[float] = 100e6,
    access_latency: float = 0.0005,
    udp_timeout: float = 60.0,
    mint=None,
    **stack_kwargs,
) -> NattedSite:
    """Build LAN + NAT gateway and attach the site to the WAN cloud.

    Hosts get a default route via the NAT's inside address; the NAT gets a
    default route out its public interface. ``nat_type`` accepts combined
    specs like ``"symmetric-sequential"`` naming the port-allocation
    policy.
    """
    from repro.nat.box import NatBox  # local import: nat depends on net

    mint = mint or named_mac_factory(name)
    lan = make_lan(sim, n_hosts, subnet=lan_subnet, name=name, mint=mint, **stack_kwargs)
    nat = NatBox(sim, f"{name}.nat", mint, nat_type=nat_type, udp_timeout=udp_timeout)
    inside_ip = lan.network.host(1)
    inside = nat.add_inside(inside_ip, lan.network)
    Link(sim, inside.port, lan.switch.new_port(), latency=0.0001,
         bandwidth_bps=1e9, name=f"{name}.nat-sw")
    pub_ip = IPv4Address(public_ip)
    outside = nat.add_outside(pub_ip, "0.0.0.0/0")
    access = Link(sim, outside.port, cloud.attach(name), latency=access_latency,
                  bandwidth_bps=access_bandwidth_bps, name=f"{name}.access")
    for host in lan.hosts:
        host.stack.add_route("0.0.0.0/0", host.stack.interfaces[0], gateway=inside_ip)
    return NattedSite(name=name, nat=nat, lan=lan, access_link=access, public_ip=pub_ip)

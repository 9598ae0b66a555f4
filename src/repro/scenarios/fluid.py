"""Fluid-plane wiring for the standard topologies.

:func:`fluidify` attaches a :class:`~repro.net.fluid.FluidNetwork` to a
:class:`~repro.scenarios.stacks.StackPair` and registers the capacity
paths between its endpoints, so the same measurement code (`ttcp`,
`netperf`, `ab`) can run at ``fidelity="fluid"`` over any of the three
stacks. The per-stack knowledge lives here:

* **physical** — access links only; wire overhead 58 B per MSS
  (TCP/IP/Ethernet/FCS).
* **wavnet** — the NATed site chains (host-switch, switch-NAT, access),
  108 B per MSS (inner frame + WavData/UDP/IP/outer-Ethernet
  encapsulation), and the WAV tunnel as a conduit, so driver connection
  death stalls fluid flows exactly as it stalls packet ones.
* **ipop** — the same site chains with IPOP's fragmented framing
  (~226 B per full MSS), plus one *CPU* capacity link per endpoint
  modeling the serialized user-level stack, which is what caps IPOP
  throughput on fast paths. Its capacity is *calibrated* against the
  packet plane (:data:`IPOP_STEADY_CPU_BPS`) because the packet
  model's ceiling is an emergent ACK-clocking property, not a
  per-packet constant.

Also registers the ``fluid_fanout`` experiment scenario: N concurrent
bulk flows over a fan-out of host pairs, runnable at either fidelity —
the scalability workload behind ``benchmarks/bench_fluid_scale.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.ipop import HEADER_BYTES, P2P_MTU
from repro.core.assembler import DATA_HEADER
from repro.core.options import check_fidelity
from repro.exp.spec import scenario
from repro.net.fluid import FluidLink, FluidNetwork, FluidPath
from repro.net.l2 import BRIDGE_FORWARD_DELAY, SWITCH_FORWARD_DELAY
from repro.net.packet import (ETHERNET_FCS, ETHERNET_HEADER, IPV4_HEADER,
                              TCP_HEADER, UDP_HEADER)
from repro.net.tcp import WIRE_OVERHEAD_TCP

__all__ = ["IPOP_STEADY_CPU_BPS", "fluidify", "wire_overhead_for"]

# One outer UDP/IP/Ethernet datagram (with FCS) around a tunneled packet.
_OUTER_DATAGRAM = UDP_HEADER + IPV4_HEADER + ETHERNET_HEADER + ETHERNET_FCS
# Per-packet encapsulation on top of the native frame (58 B): the
# WavData header inside one outer datagram.
WAVNET_TUNNEL_OVERHEAD = DATA_HEADER + _OUTER_DATAGRAM

# -- Calibrated IPOP capacity ------------------------------------------
# The IPOP packet model's throughput cap is an *emergent* property: its
# serialized user-level stack is ACK-clocked, and the mean data-segment
# size the clocking converges to is not derivable from the per-packet
# constants (repro.baselines.ipop) alone. The fluid plane therefore
# carries the packet plane's measured steady-state goodput as a
# calibrated capacity (DESIGN.md §12, "Calibrated IPOP capacity").
#
# IPOP_STEADY_CPU_BPS is the full-MSS steady regime every unshaped (or
# mildly shaped) path converges to. Measured by size/duration
# differencing (which cancels the startup transient): ttcp increments
# 8->16 and 16->32 MB at 74.2 ms / 18.6 Mbps are wire-limited at
# 16.02 Mbps while netperf tails on fast wires sit at 17.90 Mbps — the
# CPU ceiling itself.
#
# Caveat: when the wire is shaped *near or below* this rate the packet
# plane is metastable — it wanders between the full-MSS regime and a
# slower small-segment interleaved-ACK regime depending on history.
# There is no single constant to calibrate there; that band needs
# packet fidelity (DESIGN.md §12, "When the fluid model applies").
IPOP_STEADY_CPU_BPS = 17.90e6


def wire_overhead_for(stack: str, mss: int) -> int:
    """Wire bytes per MSS of goodput beyond the MSS itself."""
    if stack == "physical":
        return WIRE_OVERHEAD_TCP
    if stack == "wavnet":
        return WIRE_OVERHEAD_TCP + WAVNET_TUNNEL_OVERHEAD
    if stack == "ipop":
        # Inner IP packet (mss + TCP + IP headers) fragmented over the P2P
        # MTU; each fragment carries Brunet framing, the whole bundle
        # rides one outer datagram.
        inner = TCP_HEADER + IPV4_HEADER
        frags = max(1, -(-(mss + inner) // P2P_MTU))
        return inner + frags * HEADER_BYTES + _OUTER_DATAGRAM
    raise ValueError(f"unknown stack {stack!r}")


def _find_link(sim, name: str):
    for comp in sim.components.find(kind="link").values():
        if comp.name == name:
            return comp
    raise KeyError(f"no link named {name!r}")


def _site_chains(net: FluidNetwork, sim, site: str, natted: bool,
                 factor: float):
    """(egress, ingress) chains of (FluidLink, factor) for one site,
    plus the one-way latency each chain contributes."""
    if not natted:
        access = _find_link(sim, f"{site}.access")
        egress = [(net.link_for(access, "ab"), factor)]
        ingress = [(net.link_for(access, "ba"), factor)]
        latency = access.ab.latency
        return egress, ingress, latency
    h0sw = _find_link(sim, f"{site}.h0-sw")
    natsw = _find_link(sim, f"{site}.nat-sw")
    access = _find_link(sim, f"{site}.access")
    egress = [(net.link_for(h0sw, "ab"), factor),
              (net.link_for(natsw, "ba"), factor),
              (net.link_for(access, "ab"), factor)]
    ingress = [(net.link_for(access, "ba"), factor),
               (net.link_for(natsw, "ab"), factor),
               (net.link_for(h0sw, "ba"), factor)]
    latency = h0sw.ab.latency + natsw.ab.latency + access.ab.latency
    return egress, ingress, latency


def fluidify(pair, mss: int = 1460, refresh_interval: float = 0.5,
             stall_timeout: Optional[float] = None) -> FluidNetwork:
    """Attach a FluidNetwork to a StackPair's simulator and register the
    bidirectional routes between its endpoints.

    A path's RTT is its link latencies plus the forwarding costs they
    miss: the switch and bridge forward delays each direction crosses.
    One IPOP endpoint's user-level stack sustains
    :data:`IPOP_STEADY_CPU_BPS` of goodput, the calibrated full-MSS
    steady rate (see "Calibrated IPOP capacity" in DESIGN.md §12)."""
    sim = pair.sim
    net = FluidNetwork(sim, refresh_interval=refresh_interval,
                       stall_timeout=stall_timeout)
    if pair.env is not None:
        stack = "wavnet"
    elif pair.overlay is not None:
        stack = "ipop"
    else:
        stack = "physical"
    natted = stack != "physical"
    site_a = pair.host_a.name.split(".")[0]
    site_b = pair.host_b.name.split(".")[0]
    factor = (mss + wire_overhead_for(stack, mss)) / mss

    eg_a, in_a, lat_a = _site_chains(net, sim, site_a, natted, factor)
    eg_b, in_b, lat_b = _site_chains(net, sim, site_b, natted, factor)

    if stack == "ipop":
        cpu_factor = 1.0 / IPOP_STEADY_CPU_BPS
        cpu_a = FluidLink(f"ipop.{site_a}.cpu", capacity_bps=1.0, kind="cpu")
        cpu_b = FluidLink(f"ipop.{site_b}.cpu", capacity_bps=1.0, kind="cpu")
        eg_a = [(cpu_a, cpu_factor)] + eg_a
        in_b = in_b + [(cpu_b, cpu_factor)]
        eg_b = [(cpu_b, cpu_factor)] + eg_b
        in_a = in_a + [(cpu_a, cpu_factor)]

    # A site LAN's switch forwards once per direction on each side; the
    # WAVNet tap's bridge adds one bridge forward beside it.
    if stack == "physical":
        extra_rtt = 0.0
    elif stack == "wavnet":
        extra_rtt = 2 * 2 * (SWITCH_FORWARD_DELAY + BRIDGE_FORWARD_DELAY)
    else:
        extra_rtt = 2 * 2 * SWITCH_FORWARD_DELAY

    rtt = 2 * (lat_a + pair.cloud.latency(site_a, site_b) + lat_b) + extra_rtt
    conduits = ((FluidNetwork.conduit_key(site_a, site_b),)
                if stack == "wavnet" else ())

    fwd = FluidPath(links=tuple(eg_a + in_b), rtt=rtt, mss=mss,
                    sites=(site_a, site_b), cloud=pair.cloud,
                    conduits=conduits)
    rev = FluidPath(links=tuple(eg_b + in_a), rtt=rtt, mss=mss,
                    sites=(site_b, site_a), cloud=pair.cloud,
                    conduits=conduits)
    net.add_route(pair.host_a.name, pair.ip_b, fwd)

    # Reverse route, when the A-side address is discoverable.
    ip_a = None
    if pair.env is not None:
        ip_a = pair.env.hosts[site_a].virtual_ip
    elif pair.overlay is not None:
        node = pair.overlay.nodes.get(pair.host_a.name)
        ip_a = node.virtual_ip if node is not None else None
    elif pair.host_a.stack.ips:
        ip_a = pair.host_a.stack.ips[0]
    if ip_a is not None:
        net.add_route(pair.host_b.name, ip_a, rev)
    return net


@scenario("fluid_fanout")
def fluid_fanout(seed: int = 0, fidelity: str = "fluid",
                 n_flows: int = 10000, flow_kb: int = 64,
                 n_pairs: int = 10, bandwidth_mbps: float = 1000.0,
                 rtt_ms: float = 20.0, queue_capacity: int = 4096,
                 mss: int = 1460):
    """N concurrent bulk transfers fanned over ``n_pairs`` host pairs,
    all arriving at t=0 — the scalability workload. At
    ``fidelity="packet"`` every flow is a real TCP transfer into a
    draining server; at ``"fluid"`` each is one FluidFlow. The payload
    reports completion statistics; the envelope's ``obs`` block carries
    the event count the bench compares."""
    from repro.net.addresses import IPv4Address
    from repro.net.wan import WanCloud
    from repro.scenarios.builder import make_public_host
    from repro.sim.engine import Simulator

    check_fidelity(fidelity)
    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=rtt_ms / 2000.0)
    flow_bytes = flow_kb * 1024
    access_lat = 0.0002
    cloud_rtt = max(rtt_ms / 1000.0 - 4 * access_lat, 1e-4)
    senders, receivers, dst_ips = [], [], []
    for i in range(n_pairs):
        src_ip, dst_ip = f"8.7.{i}.1", f"8.7.{i}.2"
        tx = make_public_host(sim, cloud, f"tx{i}", src_ip,
                              access_latency=access_lat,
                              access_bandwidth_bps=bandwidth_mbps * 1e6,
                              queue_capacity=queue_capacity, tcp_mss=mss)
        rx = make_public_host(sim, cloud, f"rx{i}", dst_ip,
                              access_latency=access_lat,
                              access_bandwidth_bps=bandwidth_mbps * 1e6,
                              queue_capacity=queue_capacity, tcp_mss=mss)
        cloud.set_rtt(f"tx{i}", f"rx{i}", cloud_rtt)
        senders.append(tx)
        receivers.append(rx)
        dst_ips.append(IPv4Address(dst_ip))

    rtt = rtt_ms / 1000.0
    if fidelity == "fluid":
        net = FluidNetwork(sim, refresh_interval=0.0)
        factor = (mss + WIRE_OVERHEAD_TCP) / mss
        routes = []
        for i in range(n_pairs):
            tx_access = _find_link(sim, f"tx{i}.access")
            rx_access = _find_link(sim, f"rx{i}.access")
            path = FluidPath(links=((net.link_for(tx_access, "ab"), factor),
                                    (net.link_for(rx_access, "ba"), factor)),
                             rtt=rtt, mss=mss,
                             sites=(f"tx{i}", f"rx{i}"), cloud=cloud)
            net.add_route(f"tx{i}", dst_ips[i], path)
            routes.append(path)
        # One arrival cohort, in round-robin pair order (grouping by pair
        # would reorder the solve's float sums). ramp=False: at 10^3 flows
        # per pair the fair share sits far below slow-start territory;
        # modeling the ramp would only add per-flow timer events without
        # moving the answer.
        flows = net.open_many([routes[k % n_pairs] for k in range(n_flows)],
                              [f"f{k}" for k in range(n_flows)],
                              size_bytes=flow_bytes, ramp=False)
        sim.run()
        completed = sum(1 for f in flows if f.state == "done")
        payload = {
            "fidelity": fidelity, "n_flows": n_flows,
            "completed": completed,
            "sim_seconds": sim.now,
            "goodput_mbps": completed * flow_bytes * 8 / 1e6 / sim.now
            if sim.now > 0 else 0.0,
        }
        return sim, payload

    # Packet mode: netserver-style drain on each receiver, one real TCP
    # transfer per flow (same arrival pattern: everything at t=0).
    from repro.apps.netperf import netserver
    from repro.apps.ttcp import ttcp_transfer

    port = 5201
    for rx in receivers:
        sim.process(netserver(rx, port=port))
    procs = []
    for k in range(n_flows):
        i = k % n_pairs
        procs.append(sim.process(
            ttcp_transfer(senders[i], dst_ips[i], flow_bytes, port=port),
            name=f"f{k}"))
    sim.run()
    completed = sum(1 for p in procs if p.processed and p.ok)
    payload = {
        "fidelity": fidelity, "n_flows": n_flows,
        "completed": completed,
        "sim_seconds": sim.now,
        "goodput_mbps": completed * flow_bytes * 8 / 1e6 / sim.now
        if sim.now > 0 else 0.0,
    }
    return sim, payload

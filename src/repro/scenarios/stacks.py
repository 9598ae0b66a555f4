"""Builders for the three network stacks every comparison runs on:
physical (native), WAVNet, and IPOP — over matched path parameters.

Each builder returns, for a given (RTT, bottleneck bandwidth), one
:class:`StackPair` exposing the same ``(sim, host_a, host_b, ip_b)``
surface, so measurement code is identical across stacks;
:func:`stack_pair` dispatches on the stack name, which is how the
``stack_ping`` experiment scenario parameterizes Table II cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.ipop import IpopConfig, IpopOverlay
from repro.exp.spec import scenario
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_natted_site
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["SITE_PATH_RTT", "StackPair", "ipop_pair", "physical_pair",
           "relayed_ipop_pair", "stack_app", "stack_pair", "wavnet_pair"]

# Fixed per-pair path cost outside the cloud: two sites, each with
# host->switch (0.1 ms) + switch->NAT (0.1 ms) + access (0.2 ms), both
# directions. The cloud carries the measured RTT minus this.
ACCESS_LATENCY = 0.0002
SITE_PATH_RTT = 2 * 2 * (0.0001 + 0.0001 + ACCESS_LATENCY)


@dataclass
class StackPair:
    """Endpoint pair for one stack, over matched path parameters.

    Exactly one of the stack-specific fields is set: ``env`` for WAVNet,
    ``overlay`` for IPOP, neither for the physical path. ``cloud`` is
    always the WAN carrying the pair."""

    sim: Simulator
    host_a: Host
    host_b: Host
    ip_b: IPv4Address
    cloud: WanCloud
    env: Optional[WavnetEnvironment] = None
    overlay: Optional[IpopOverlay] = None

    @property
    def metrics(self):
        """The pair's simulator-wide metrics registry (``repro.obs``)."""
        return self.sim.metrics

    @property
    def trace(self):
        """The pair's simulator-wide tracer (``repro.obs``)."""
        return self.sim.trace


def physical_pair(rtt: float, bandwidth_bps: float, seed: int = 0,
                  mss: int = 1460,
                  send_buf: int = 262144, recv_buf: int = 262144) -> StackPair:
    """Native path: two public hosts on the same cloud + access links the
    NATed builders use, so all three stacks share identical bottleneck
    structure; only NAT boxes and tunneling differ."""
    from repro.scenarios.builder import make_public_host

    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=0.010)
    a = make_public_host(sim, cloud, "pa", "8.5.0.1", access_latency=ACCESS_LATENCY,
                         access_bandwidth_bps=bandwidth_bps, tcp_mss=mss,
                         tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
    b = make_public_host(sim, cloud, "pb", "8.5.0.2", access_latency=ACCESS_LATENCY,
                         access_bandwidth_bps=bandwidth_bps, tcp_mss=mss,
                         tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
    cloud.set_rtt("pa", "pb", max(rtt - 2 * 2 * ACCESS_LATENCY, 1e-4))
    return StackPair(sim, a, b, IPv4Address("8.5.0.2"), cloud)


def wavnet_pair(rtt: float, bandwidth_bps: float, seed: int = 0,
                mss: int = 1460, nat_type: str = "port-restricted",
                send_buf: int = 262144, recv_buf: int = 262144) -> StackPair:
    """Two NATed WAVNet hosts punched together across the cloud."""
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, default_latency=0.010)
    for name in ("wa", "wb"):
        env.add_host(name, nat_type=nat_type,
                     access_bandwidth_bps=bandwidth_bps, tcp_mss=mss,
                     access_latency=ACCESS_LATENCY,
                     tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
    env.cloud.set_rtt("wa", "wb", max(rtt - SITE_PATH_RTT, 1e-4))
    env.up().connect("wa", "wb")
    a = env.hosts["wa"].host
    b = env.hosts["wb"].host
    return StackPair(sim, a, b, env.hosts["wb"].virtual_ip, env.cloud, env=env)


def ipop_pair(rtt: float, bandwidth_bps: float, seed: int = 0,
              mss: int = 1460, config: IpopConfig | None = None,
              send_buf: int = 262144, recv_buf: int = 262144) -> StackPair:
    """Two NATed IPOP endpoints (direct P2P edge, so the comparison
    isolates the per-packet user-level stack cost, as Table II/Fig 6 do).
    Full-size segments fragment over IPOP's ~1280 B P2P MTU inside the
    overlay (costing two stack services each), as real IPOP does."""
    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=0.010)
    overlay = IpopOverlay(sim, config=config)
    sites = []
    for i, name in enumerate(("ia", "ib")):
        site = make_natted_site(sim, cloud, name, f"8.6.0.{i + 1}",
                                lan_subnet=f"192.168.{60 + i}.0/24",
                                access_bandwidth_bps=bandwidth_bps, tcp_mss=mss,
                                access_latency=ACCESS_LATENCY,
                                tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
        overlay.add_node(site.hosts[0], f"10.128.0.{i + 1}", nat=site.nat)
        sites.append(site)
    cloud.set_rtt("ia", "ib", max(rtt - SITE_PATH_RTT, 1e-4))
    sim.run_coro(overlay.build_ring())
    a = sites[0].hosts[0]
    b = sites[1].hosts[0]
    return StackPair(sim, a, b, IPv4Address("10.128.0.2"), cloud, overlay=overlay)


def relayed_ipop_pair(rtt: float, bandwidth_bps: float, seed: int = 0,
                      send_buf: int = 262144, recv_buf: int = 262144) -> StackPair:
    """Six IPOP nodes in a ring with no direct edges and no shortcuts;
    the pair is two ring-distant nodes, so every packet between them
    relays through intermediate hosts. ``rtt`` is the cloud's default
    one-hop round trip."""
    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=rtt / 2)
    overlay = IpopOverlay(sim, config=IpopConfig(max_direct=0, n_shortcuts=0))
    for i in range(6):
        site = make_natted_site(sim, cloud, f"s{i}", f"8.4.0.{i + 1}",
                                lan_subnet=f"192.168.{40 + i}.0/24",
                                access_bandwidth_bps=bandwidth_bps, tcp_mss=1460,
                                tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
        overlay.add_node(site.hosts[0], f"10.128.0.{i + 1}", nat=site.nat)
    sim.run_coro(overlay.build_ring())
    nodes = sorted(overlay.nodes.values(), key=lambda n: n.ring_id)
    src, dst = nodes[0], nodes[len(nodes) // 2]
    return StackPair(sim, src.host, dst.host, dst.virtual_ip, cloud, overlay=overlay)


STACKS = {"physical": physical_pair, "wavnet": wavnet_pair, "ipop": ipop_pair,
          "ipop-relayed": relayed_ipop_pair}


def stack_pair(stack: str, rtt: float, bandwidth_bps: float, seed: int = 0,
               **kwargs) -> StackPair:
    """Build the endpoint pair for ``stack`` ("physical" / "wavnet" /
    "ipop" / "ipop-relayed") over the given path parameters."""
    try:
        builder = STACKS[stack]
    except KeyError:
        raise ValueError(f"unknown stack {stack!r}; choose from {sorted(STACKS)}")
    return builder(rtt, bandwidth_bps, seed=seed, **kwargs)


@scenario("stack_ping")
def stack_ping(seed: int = 0, stack: str = "wavnet", rtt_ms: float = 50.0,
               bandwidth_mbps: float = 50.0, probes: int = 12,
               warmup: int = 2, interval: float = 0.5, pair: str = ""):
    """ICMP RTT through one stack (the Table II measurement, one cell):
    payload carries the post-warmup mean RTT and the loss count.
    ``pair`` is a pass-through label (e.g. the site pair a sweep axis
    names) echoed into the payload."""
    from repro.apps.ping import Pinger

    label = pair
    pair = stack_pair(stack, rtt_ms / 1000.0, bandwidth_mbps * 1e6, seed=seed)
    pinger = Pinger(pair.host_a.stack, pair.ip_b, interval=interval, timeout=5.0)
    pair.sim.run_coro(pinger.run(probes))
    name = pair.host_a.stack.name
    rtts = pair.metrics.series(f"{name}.ping.rtt").values[warmup:].tolist()
    payload = {
        "pair": label,
        "stack": stack,
        "mean_rtt_ms": sum(rtts) / len(rtts) * 1000.0 if rtts else None,
        "replies": len(rtts) + warmup,
        "lost": int(pair.metrics.value(f"{name}.ping.lost")),
    }
    return pair.sim, payload


@scenario("stack_app")
def stack_app(seed: int = 0, stack: str = "wavnet", rtt_ms: float = 50.0,
              bandwidth_mbps: float = 50.0, tcp_buf: int = 262144,
              probes: int = 0, ttcp_mb: int = 0, netperf_s: float = 0.0):
    """Applications over one stack pair (Figs 6-7, the data-path
    ablation): ``probes`` pings (the first is warmup), then a ``ttcp_mb``
    MB ttcp in 16 KB writes, then a ``netperf_s`` second netperf stream.
    ``relayed`` counts packets intermediate IPOP nodes relayed meanwhile."""
    from repro.apps.netperf import netperf_stream, netserver
    from repro.apps.ping import Pinger
    from repro.apps.ttcp import ttcp_receiver, ttcp_transfer

    pair = stack_pair(stack, rtt_ms / 1000.0, bandwidth_mbps * 1e6, seed=seed,
                      send_buf=tcp_buf, recv_buf=tcp_buf)
    sim, a, b, ip_b = pair.sim, pair.host_a, pair.host_b, pair.ip_b
    nodes = pair.overlay.nodes.values() if pair.overlay else ()
    relayed = sum(n.packets_relayed for n in nodes)
    payload: dict = {}
    if netperf_s:
        sim.process(netserver(b))
    if probes:
        rtts = sim.run_coro(Pinger(a.stack, ip_b, interval=0.3,
                                   timeout=3.0).run(probes)).rtts[1:]
        payload["rtt_ms"] = sum(rtts) / len(rtts) * 1000
    if ttcp_mb:
        sim.process(ttcp_receiver(b))
        payload["ttcp_kbps"] = sim.run_coro(ttcp_transfer(
            a, ip_b, ttcp_mb * 1024 * 1024, buf_size=16384)).rate_kbps
    if netperf_s:
        payload["netperf_mbps"] = sim.run_coro(netperf_stream(
            a, ip_b, duration=netperf_s)).throughput_mbps
    payload["relayed"] = sum(n.packets_relayed for n in nodes) - relayed
    return sim, payload

"""The emulated WAN of §III: up to 64 hosts, tc-shaped bandwidth.

The paper's lab emulation connects machines through fast Ethernet
switches, adds NAT gateways via iptables, and shapes the "WAN" rate with
``tc``. Here each host is its own NATed site; the shaped WAN rate is the
site's access-link bandwidth, and the switch fabric is the low-latency
cloud."""

from __future__ import annotations

from repro.exp.spec import scenario
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["build_emulated_wan", "netperf_cluster"]


def build_emulated_wan(
    sim: Simulator,
    n_hosts: int,
    wan_bandwidth_bps: float = 100e6,
    tcp_mss: int = 1460,
    udp_timeout: float = 60.0,
) -> "tuple[WavnetEnvironment, list[WavnetHost]]":
    """Build the emulated WAN with ``n_hosts`` NATed hosts (the other
    site settings are :data:`~repro.scenarios.wavnet_env.SITE_DEFAULTS`)."""
    env = WavnetEnvironment(sim, default_latency=0.0005)  # the switch fabric
    hosts = []
    for i in range(n_hosts):
        hosts.append(env.add_host(
            f"n{i:02d}",
            access_bandwidth_bps=wan_bandwidth_bps,
            access_latency=0.0002,
            udp_timeout=udp_timeout,
            tcp_mss=tcp_mss,
        ))
    return env, hosts


@scenario("netperf_cluster")
def netperf_cluster(seed: int = 0, n_hosts: int = 8,
                    wan_bandwidth_bps: float = 100e6, tcp_mss: int = 8192,
                    udp_timeout: float = 30.0, sample_peers: int = 6,
                    duration: float = 5.0, settle: float = 15.0):
    """Figure 8's measurement at one cluster size: full-mesh WAVNet
    cluster with live keepalives, netperf from one node to a sample of
    peers. Payload carries the per-host average rate, connection count,
    and keepalive pulses observed during the tests."""
    from repro.apps.netperf import netperf_stream, netserver

    sim = Simulator(seed=seed)
    env, hosts = build_emulated_wan(sim, n_hosts,
                                    wan_bandwidth_bps=wan_bandwidth_bps,
                                    tcp_mss=tcp_mss, udp_timeout=udp_timeout)
    env.up().connect()
    # Let keepalives run for several pulse periods before measuring.
    sim.run(until=sim.now + settle)
    source = hosts[0]
    rates = []
    pulses_before = sum(c.pulses_received
                        for h in hosts for c in h.driver.connections.values())
    for peer in hosts[1:1 + sample_peers]:
        sim.process(netserver(peer.host))
        report = sim.run_coro(netperf_stream(source.host, peer.virtual_ip,
                                             duration=duration))
        rates.append(report.throughput_mbps)
    pulses_after = sum(c.pulses_received
                      for h in hosts for c in h.driver.connections.values())
    payload = {
        "n_hosts": n_hosts,
        "avg_mbps": sum(rates) / len(rates),
        "rates_mbps": rates,
        "connections": sum(len(h.driver.connections) for h in hosts) // 2,
        "pulses_during_tests": pulses_after - pulses_before,
    }
    return sim, payload

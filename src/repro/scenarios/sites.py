"""The 7-site real-WAN testbed of Table I.

Latencies come from the paper's own measurements (Tables I-V): pairwise
RTTs where reported, composed via HKU (the paper's transitivity
assumption, Eq. 3) otherwise. Access bandwidths are backed out of the
Netperf/WAVNet bandwidth column of Tables IV-V: the pair bottleneck in
those tables equals min(access(a), access(b)).

Note: the paper reports the HKU-SDSC RTT as 271.2 ms in Table I and
217.2 ms in Table V; we use Table V's value since it feeds the headline
migration experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios.wavnet_env import WavnetEnvironment, WavnetHost
from repro.sim.engine import Simulator

__all__ = ["SITES", "PAIR_RTTS_MS", "RealWan", "build_real_wan"]


@dataclass(frozen=True)
class SiteSpec:
    """One row of Table I (plus backed-out access bandwidth)."""

    name: str
    machine: str
    rtt_to_hku_ms: float
    access_mbps: float
    cpu_factor: float


SITES: dict[str, SiteSpec] = {
    "pu": SiteSpec("pu", "Intel Core 2 Quad Q6600 2.40GHz (4085MB), Taiwan",
                   30.2, 45.0, 1.2),
    "sinica": SiteSpec("sinica", "Intel Xeon E5520 2.27GHz KVM 2 cores (8183MB), Taiwan",
                       24.8, 43.0, 1.3),
    "aist": SiteSpec("aist", "Intel Core 2 Duo E6300 1.86GHz (3191MB), Japan",
                     75.8, 55.0, 1.0),
    "sdsc": SiteSpec("sdsc", "Intel Xeon 3.20GHz KVM 4 cores (16383MB), USA",
                     217.2, 28.0, 1.1),
    "hku1": SiteSpec("hku1", "Intel Core 2 Duo T7250 (1526MB), HK", 0.5, 100.0, 1.0),
    "hku2": SiteSpec("hku2", "Intel Pentium 4 2.80GHz (1526MB), HK", 0.5, 100.0, 0.6),
    "offcam": SiteSpec("offcam", "Home PC, Intel Pentium 4 2.80GHz (1279MB), HK",
                       4.4, 90.0, 0.6),
    "siat": SiteSpec("siat", "Intel Pentium 4 2.80GHz (1279MB), Shenzhen",
                     74.2, 19.0, 0.6),
}

# Directly measured pair RTTs (ms) from Tables II and III.
PAIR_RTTS_MS: dict[tuple[str, str], float] = {
    ("hku1", "siat"): 74.244,
    ("hku1", "pu"): 30.233,
    ("siat", "pu"): 219.427,
    ("sinica", "siat"): 100.3,
    ("hku1", "sinica"): 24.8,
    ("hku1", "aist"): 75.8,
    ("hku1", "sdsc"): 217.2,
    ("hku1", "offcam"): 4.4,
    ("hku1", "hku2"): 0.5,
}


def pair_rtt_ms(a: str, b: str) -> float:
    """RTT between two sites: measured if reported, composed via HKU
    (Eq. 3 transitivity) otherwise."""
    if a == b:
        return 0.2
    for key in ((a, b), (b, a)):
        if key in PAIR_RTTS_MS:
            return PAIR_RTTS_MS[key]

    def to_hku(site: str) -> float:
        return SITES[site].rtt_to_hku_ms

    return to_hku(a) + to_hku(b)


@dataclass
class RealWan:
    """The built testbed: environment + per-site WAVNet hosts."""

    env: WavnetEnvironment
    hosts: dict[str, WavnetHost]

    def host(self, name: str) -> WavnetHost:
        return self.hosts[name]


def build_real_wan(sim: Simulator, site_names=None, tcp_mss: int = 1460) -> RealWan:
    """Assemble the Table I testbed as a WAVNet environment.

    ``hku1`` and ``hku2`` are separate attachments whose mutual RTT is
    the paper's 0.5 ms; one rendezvous server (public IP in Hong Kong,
    as in the paper) serves all sites.
    """
    site_names = list(site_names or SITES)
    env = WavnetEnvironment(sim, default_latency=0.040)
    hosts: dict[str, WavnetHost] = {}
    for name in site_names:
        spec = SITES[name]
        hosts[name] = env.add_host(
            name,
            access_bandwidth_bps=spec.access_mbps * 1e6,
            access_latency=0.0002,
            attrs={"cpu_ghz": spec.cpu_factor * 2.0, "mem_mb": 2048.0},
            cpu_factor=spec.cpu_factor,
            tcp_mss=tcp_mss,
        )
    for i, a in enumerate(site_names):
        for b in site_names[i + 1:]:
            # Access links already contribute 0.4 ms per site + LAN hops;
            # the cloud carries the remainder of the measured RTT.
            residual = max(pair_rtt_ms(a, b) / 1000.0 - 2 * (0.0002 * 2 + 0.0001 * 2), 1e-4)
            env.cloud.set_rtt(a, b, residual)
        # Control-plane paths (rendezvous/STUN sit in Hong Kong).
        hku_ms = SITES[a].rtt_to_hku_ms
        for infra in ("rvz0", "stun.primary", "stun.alt"):
            env.cloud.set_rtt(a, infra, max(hku_ms / 1000.0, 1e-4))
    return RealWan(env=env, hosts=hosts)

"""The one PDES-capable scenario: a site-partitioned tunnel mesh.

``pdes_mesh`` follows the :mod:`repro.sim.pdes` contract — it takes
``partitions=`` as an ordinary parameter plus the private
``_partition=None`` hook, assigns each WAN site (and everything behind
it) to a *site group*, builds only the groups its partition owns, and
declares every other group's attachment points as remote cloud sites.
Serial runs (``run_spec``) execute the identical code path with a
serial :class:`~repro.sim.pdes.PartitionContext` that owns every group.
It is kept as the serial-vs-partitioned byte-identity oracle, not as a
way to run faster (see :mod:`repro.sim.pdes`).

Three properties keep the merged partitioned result byte-identical to
the serial run:

* **Full remote declarations.** A partition declares *all* non-owned
  sites, in both directions: replies to MACs learned from injected
  frames must hit the outbox (not fall through to a missing local
  port), and flood records must reach every partition — exactly the
  sites a serial flood would deliver to.
* **Distinct event times.** Per-pair WAN latencies are drawn from a
  hash of the site names (20–30 ms, all distinct), and every scripted
  action (driver starts, connects, transfers) gets its own
  timestamp. Cross-partition calendar ties would otherwise make the
  merged trace order differ from the serial log order.
* **Time-scripted orchestration.** All cross-group coordination is
  scheduled at fixed simulation times; no scenario-level process ever
  awaits a completion that lives in another partition.
"""

from __future__ import annotations

import zlib

from repro.apps.netperf import netperf_stream, netserver
from repro.exp.spec import scenario
from repro.net.addresses import IPv4Address
from repro.net.wan import WanCloud
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator
from repro.sim.pdes import PartitionContext, pdes_merger

__all__ = ["pdes_mesh"]

# All cross-site latencies live in [20ms, 30ms): a fat conservative
# lookahead (few windows per simulated second) while staying in the
# paper's wide-area regime.
_LAT_BASE = 0.020


def _pair_latency(a: str, b: str) -> float:
    """Deterministic, symmetric, per-pair-distinct one-way latency."""
    lo, hi = sorted((a, b))
    return _LAT_BASE + (zlib.crc32(f"{lo}|{hi}".encode()) % 997) * 1e-5


def _set_mesh_latencies(cloud: WanCloud, sites: list[str]) -> None:
    """Install the pairwise latency plan — called with the identical
    site list in every partition, so the replicated tables agree."""
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            cloud.set_latency(a, b, _pair_latency(a, b))


def _build_mesh(sim: Simulator, ctx: PartitionContext, n_sites: int,
                hosts_per_site: int, n_rendezvous: int):
    """The mesh topology: site group ``g`` owns hosts ``s{g}h{j}``; the
    control plane (STUN + rendezvous fleet) rides along in group 0."""
    env = WavnetEnvironment(sim, default_latency=_LAT_BASE,
                            n_rendezvous=n_rendezvous,
                            build_control=ctx.owns(0),
                            control_partition=ctx.owner_of(0))
    names = [[f"s{g}h{j}" for j in range(hosts_per_site)]
             for g in range(n_sites)]
    control = ["stun.primary", "stun.alt"] + \
              [f"rvz{i}" for i in range(n_rendezvous)]
    _set_mesh_latencies(env.cloud,
                        control + [n for group in names for n in group])
    # Declare every endpoint everywhere (lock-step vip/address
    # allocation), then build owned groups / declare the rest remote.
    for group in names:
        for name in group:
            env.add_endpoint(name)  # fleet-assigned rendezvous server
    for g, group in enumerate(names):
        for name in group:
            if ctx.owns(g):
                env.build_declared(name)
            else:
                env.declare_remote_host(name, ctx.owner_of(g))
    if ctx.owns(0) and n_rendezvous > 1:
        sim.call_at(0.01,
                    lambda: sim.process(env.join_rendezvous_overlay()))
    k = 0
    for g, group in enumerate(names):
        for name in group:
            if ctx.owns(g):
                drv = env.hosts[name].driver
                sim.call_at(0.5 + 0.131 * k,
                            lambda d=drv: sim.process(d.start()))
            k += 1
    return env, names


def _record_connect(sim, driver, peer: str, out: dict, key: str):
    """Process: punch a tunnel and record when it came up."""
    conn = yield from driver.connect_by_name(peer)
    out[key] = {"established_at": conn.established_at,
                "relayed": bool(conn.relayed)}


def _record_netperf(sim, host, dst_ip, duration: float, out: dict, key: str):
    """Process: one netperf TCP_STREAM over the tunnel."""
    res = yield from netperf_stream(host, dst_ip, duration=duration,
                                    interval=1.0)
    out[key] = {"bytes": int(res.bytes_received),
                "mbps": float(res.throughput_mbps)}


@scenario("pdes_mesh")
def pdes_mesh(seed: int = 0, partitions: int = 1, n_sites: int = 4,
              hosts_per_site: int = 1, n_rendezvous: int = 2,
              duration: float = 6.0, horizon: float = 32.0,
              _partition=None):
    """Fig-08-style site mesh, partitionable by site: every site brings
    up WAVNet hosts, punches a tunnel ring across sites, and streams
    netperf over the tunnels — registration, punch coordination, and
    bulk traffic all cross the partition boundary."""
    ctx = _partition or PartitionContext(int(partitions))
    sim = Simulator(seed=seed)
    env, names = _build_mesh(sim, ctx, n_sites, hosts_per_site, n_rendezvous)
    connect: dict[int, dict] = {g: {} for g in range(n_sites) if ctx.owns(g)}
    netperf: dict[int, dict] = {g: {} for g in range(n_sites) if ctx.owns(g)}
    k = 0
    for g, group in enumerate(names):
        for name in group:
            if ctx.owns(g):
                host = env.hosts[name].host
                sim.call_at(4.0 + 0.071 * k,
                            lambda h=host: sim.process(netserver(h)))
            k += 1
    for g in range(n_sites):
        peer_g = (g + 1) % n_sites
        src, dst = names[g][0], names[peer_g][0]
        dst_vip = IPv4Address(int(env.table.virtual_ip[env.table.lookup(dst)]))
        if not ctx.owns(g):
            continue
        drv = env.hosts[src].driver
        sim.call_at(12.0 + 0.211 * g,
                    lambda d=drv, p=dst, o=connect[g], key=f"{src}->{dst}":
                    sim.process(_record_connect(sim, d, p, o, key)))
        host = env.hosts[src].host
        sim.call_at(20.0 + 0.173 * g,
                    lambda h=host, ip=dst_vip, o=netperf[g],
                    key=f"{src}->{dst}":
                    sim.process(_record_netperf(sim, h, ip, duration, o, key)))
    ctx.run(sim, env.cloud, horizon)
    shards = {g: {"connect": connect[g], "netperf": netperf[g]}
              for g in connect}
    if ctx.serial:
        return sim, _merge_mesh(shards)
    return sim, shards


@pdes_merger("pdes_mesh")
def _merge_mesh(shards: dict) -> dict:
    connect: dict = {}
    netperf: dict = {}
    for g in sorted(shards):
        connect.update(shards[g]["connect"])
        netperf.update(shards[g]["netperf"])
    established = sorted(v["established_at"] for v in connect.values())
    return {
        "n_groups": len(shards),
        "connect": connect,
        "netperf": netperf,
        "tunnels": len(connect),
        "relayed": sum(1 for v in connect.values() if v["relayed"]),
        "mesh_established_at": established[-1] if established else None,
        "total_mbytes": sum(v["bytes"] for v in netperf.values()) / 1e6,
    }

"""PDES-capable scenarios: site-partitioned builds of the standard
workloads.

Every scenario here follows the :mod:`repro.sim.pdes` contract — it
takes ``partitions=`` as an ordinary parameter plus the private
``_partition=None`` hook, assigns each WAN site (and everything behind
it) to a *site group*, builds only the groups its partition owns, and
declares every other group's attachment points as remote cloud sites.
Serial runs (``run_spec``) execute the identical code path with a
serial :class:`~repro.sim.pdes.PartitionContext` that owns every group.

Three properties keep the merged partitioned result byte-identical to
the serial run:

* **Full remote declarations.** A partition declares *all* non-owned
  sites, in both directions: replies to MACs learned from injected
  frames must hit the outbox (not fall through to a missing local
  port), and flood records must reach every partition — exactly the
  sites a serial flood would deliver to.
* **Distinct event times.** Per-pair WAN latencies are drawn from a
  hash of the site names (20–30 ms, all distinct), and every scripted
  action (driver starts, connects, transfers, faults) gets its own
  timestamp. Cross-partition calendar ties would otherwise make the
  merged trace order differ from the serial log order.
* **Time-scripted orchestration.** All cross-group coordination is
  scheduled at fixed simulation times; no scenario-level process ever
  awaits a completion that lives in another partition.
"""

from __future__ import annotations

import zlib

from repro.apps.netperf import netperf_stream, netserver
from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.exp.spec import scenario
from repro.faults.plan import FaultPlan
from repro.net.addresses import IPv4Address
from repro.net.fluid import FluidNetwork, FluidPath
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_public_host
from repro.scenarios.fluid import _find_link
from repro.scenarios.storm import StormLane, control_counters
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator
from repro.sim.pdes import PartitionContext, pdes_merger

__all__ = ["pdes_churn", "pdes_fluid_mix", "pdes_mesh", "pdes_storm"]

# All cross-site latencies live in [20ms, 30ms): a fat conservative
# lookahead (few windows per simulated second) while staying in the
# paper's wide-area regime.
_LAT_BASE = 0.020


def _pair_latency(a: str, b: str) -> float:
    """Deterministic, symmetric, per-pair-distinct one-way latency."""
    lo, hi = sorted((a, b))
    return _LAT_BASE + (zlib.crc32(f"{lo}|{hi}".encode()) % 997) * 1e-5


def _set_mesh_latencies(cloud: WanCloud, sites: list[str],
                        scale: float = 1.0) -> None:
    """Install the pairwise latency plan — called with the identical
    site list in every partition, so the replicated tables agree.
    ``scale`` stretches every latency (global-region deployments):
    a bigger minimum latency means a bigger PDES lookahead, so fewer
    window barriers per simulated second."""
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            cloud.set_latency(a, b, scale * _pair_latency(a, b))


def _build_mesh(sim: Simulator, ctx: PartitionContext, n_sites: int,
                hosts_per_site: int, n_rendezvous: int):
    """Shared topology for the mesh scenarios: site group ``g`` owns
    hosts ``s{g}h{j}``; the control plane (STUN + rendezvous fleet)
    rides along in group 0."""
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


@scenario("pdes_churn")
def pdes_churn(seed: int = 0, partitions: int = 1, n_rendezvous: int = 2,
               horizon: float = 34.0, _partition=None):
    """Two host sites plus control, with a group-tagged fault schedule:
    a driver crash/restore and a NAT reboot in group 1, a link flap in
    group 0 — each verb armed exactly once, in the partition that owns
    the faulted object, while the tunnel's other end reacts from the
    neighboring partition."""
    ctx = _partition or PartitionContext(int(partitions))
    sim = Simulator(seed=seed)
    env, names = _build_mesh(sim, ctx, 2, 2, n_rendezvous)
    connect: dict[int, dict] = {g: {} for g in (0, 1) if ctx.owns(g)}
    for j, t in ((0, 12.1), (1, 12.9)):
        src, dst = f"s0h{j}", f"s1h{j}"
        if ctx.owns(0):
            drv = env.hosts[src].driver
            sim.call_at(t,
                        lambda d=drv, p=dst, o=connect[0],
                        key=f"{src}->{dst}":
                        sim.process(_record_connect(sim, d, p, o, key)))
    plan = FaultPlan(sim, name="pdes-churn")
    if ctx.owns(1):
        cid = env.hosts["s1h0"].driver.component_id
        plan.at(18.31, "crash", group=1, component_id=cid)
        plan.at(24.71, "restore", group=1, component_id=cid)
        plan.at(27.13, "nat_reboot", group=1,
                nat=env.hosts["s1h1"].site.nat)
    if ctx.owns(0):
        plan.at(20.57, "link_flap", group=0,
                link=env.hosts["s0h0"].site.access_link, down_for=2.0)
    plan.arm(partition=None if ctx.serial else ctx)
    ctx.run(sim, env.cloud, horizon)
    shards: dict[int, dict] = {}
    for g in (0, 1):
        if not ctx.owns(g):
            continue
        hosts = {}
        for name in names[g]:
            drv = env.hosts[name].driver
            hosts[name] = {"running": bool(drv.running),
                           "connections": sorted(drv.connections)}
        shard = {"hosts": hosts, "connect": connect.get(g, {}),
                 "faults_armed": sum(1 for e in plan.events if e.group == g)}
        if g == 0:
            shard["registered"] = int(env.table.registered_count)
        shards[g] = shard
    if ctx.serial:
        return sim, _merge_churn(shards)
    return sim, shards


@pdes_merger("pdes_churn")
def _merge_churn(shards: dict) -> dict:
    hosts: dict = {}
    connect: dict = {}
    registered = None
    armed = 0
    for g in sorted(shards):
        sh = shards[g]
        hosts.update(sh["hosts"])
        connect.update(sh["connect"])
        armed += sh["faults_armed"]
        if "registered" in sh:
            registered = sh["registered"]
    return {
        "hosts": hosts,
        "connect": connect,
        "faults_armed": armed,
        "registered": registered,
        "running": sum(1 for h in hosts.values() if h["running"]),
    }


def _record_fill(sim, lane: StormLane, batch: int, out: dict, key: str):
    """Process: one lane registration pass, with its finish time."""
    count = yield from lane.register(batch)
    out[key] = {"count": int(count), "done_at": sim.now}


@scenario("pdes_storm")
def pdes_storm(seed: int = 0, partitions: int = 1, n_endpoints: int = 600,
               n_rendezvous: int = 2, n_regions: int = 3, batch: int = 128,
               keepalive_interval: float = 6.0, outage_region: int = 0,
               horizon: float = 45.0, lat_scale: float = 1.0,
               _partition=None):
    """Registration storm partitioned by region: group 0 owns the whole
    control plane (STUN, rendezvous fleet, the authoritative table),
    groups ``1+r`` own one lane concentrator each. Lanes register,
    sweep batched keepalives, and re-register after a regional outage —
    every control-plane op is a cross-partition RPC."""
    ctx = _partition or PartitionContext(int(partitions))
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, n_rendezvous=n_rendezvous,
                            replication_factor=1,
                            build_control=ctx.owns(0),
                            control_partition=ctx.owner_of(0))
    # Registrations land only where the servers live; every other
    # partition's table replica is allocation-only.
    env.table.claim_partition(0, ctx)
    control = ["stun.primary", "stun.alt"] + \
              [f"rvz{i}" for i in range(n_rendezvous)]
    _set_mesh_latencies(env.cloud,
                        control + [f"lane{r}" for r in range(n_regions)],
                        scale=lat_scale)
    if ctx.owns(0) and n_rendezvous > 1:
        sim.call_at(0.01,
                    lambda: sim.process(env.join_rendezvous_overlay()))
    lanes: dict[int, StormLane] = {}
    fills: dict[int, dict] = {}
    base = 0
    for r in range(n_regions):
        count = n_endpoints // n_regions \
            + (1 if r < n_endpoints % n_regions else 0)
        if ctx.owns(1 + r):
            lanes[r] = StormLane(sim, env, region=r, count=count,
                                 base_index=base)
            fills[r] = {}
        else:
            env.cloud.declare_remote_site(f"lane{r}", ctx.owner_of(1 + r))
        base += count
    for r, lane in lanes.items():
        sim.call_at(1.0 + 0.157 * r,
                    lambda ln=lane, o=fills[r]: sim.process(
                        _record_fill(sim, ln, batch, o, "fill"),
                        name=f"storm-fill:r{ln.region}"))
        if keepalive_interval:
            sim.call_at(8.0 + 0.193 * r,
                        lambda ln=lane: sim.process(
                            ln.keepalive_loop(keepalive_interval),
                            name=f"storm-keepalive:r{ln.region}"))
    plan = FaultPlan(sim, name="pdes-storm")
    plan.at(22.0, "regional_outage", group=0, table=env.table,
            region=outage_region)
    plan.arm(partition=None if ctx.serial else ctx)
    if outage_region in lanes:
        sim.call_at(28.0, lambda ln=lanes[outage_region],
                    o=fills[outage_region]: sim.process(
                        _record_fill(sim, ln, batch, o, "refill"),
                        name="storm-reconnect"))
    ctx.run(sim, env.cloud, horizon)
    shards: dict[int, dict] = {}
    if ctx.owns(0):
        shards[0] = {"rows": len(env.table),
                     "registered": int(env.table.registered_count),
                     **control_counters(env)}
    for r, lane in lanes.items():
        shards[1 + r] = {
            "region": r,
            "endpoints": len(lane.names),
            "fill": fills[r].get("fill"),
            "refill": fills[r].get("refill"),
            "rejected_batches": lane.rejected_batches,
            "failed": lane.failed,
            "keepalive_sweeps": lane.keepalive_sweeps,
            "keepalives_acked": lane.keepalives_acked,
        }
    if ctx.serial:
        return sim, _merge_storm(shards)
    return sim, shards


@pdes_merger("pdes_storm")
def _merge_storm(shards: dict) -> dict:
    control = shards.get(0, {})
    lanes = [shards[g] for g in sorted(shards) if g != 0]
    payload = {
        "n_regions": len(lanes),
        "filled": sum((ln["fill"] or {}).get("count", 0) for ln in lanes),
        "reconnected": sum((ln["refill"] or {}).get("count", 0)
                           for ln in lanes),
        "rejected_batches": sum(ln["rejected_batches"] for ln in lanes),
        "failed": sum(ln["failed"] for ln in lanes),
        "keepalive_sweeps": sum(ln["keepalive_sweeps"] for ln in lanes),
        "keepalives_acked": sum(ln["keepalives_acked"] for ln in lanes),
        "lanes": {str(ln["region"]): ln for ln in lanes},
    }
    payload.update(control)
    return payload


def _record_ttcp(sim, host, dst_ip, nbytes: int, out: dict, key):
    """Process: one cross-group packet-fidelity TCP transfer."""
    res = yield from ttcp_transfer(host, dst_ip, nbytes)
    out[key] = {"bytes": int(res.total_bytes),
                "elapsed": float(res.elapsed), "done_at": sim.now}


@scenario("pdes_fluid_mix")
def pdes_fluid_mix(seed: int = 0, partitions: int = 1, n_groups: int = 2,
                   fluid_mb: float = 40.0, packet_mb: float = 4.0,
                   horizon: float = 16.0, _partition=None):
    """Mixed fidelity under partitioning: each group runs an
    intra-group bulk transfer on its own fluid solver, then the groups
    exchange packet-fidelity TCP transfers across the partition
    boundary (ARP floods, SYNs, and data all cross at the barrier).
    Fluid flows never ride a remote site — each partition's solver is
    self-contained, which is exactly what the cloud-boundary guard in
    :meth:`repro.net.fluid.FluidNetwork.open` enforces."""
    ctx = _partition or PartitionContext(int(partitions))
    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=_LAT_BASE)
    _set_mesh_latencies(cloud, [f"g{g}{x}" for g in range(n_groups)
                                for x in "ab"])
    net = FluidNetwork(sim, refresh_interval=0.0)
    hosts: dict[str, object] = {}
    for g in range(n_groups):
        for x, last in (("a", 1), ("b", 2)):
            site = f"g{g}{x}"
            if ctx.owns(g):
                hosts[site] = make_public_host(sim, cloud, site,
                                               f"8.9.{g}.{last}",
                                               network="8.9.0.0/16")
            else:
                cloud.declare_remote_site(site, ctx.owner_of(g))
    flows: dict[int, object] = {}
    ttcp: dict[int, dict] = {}
    for g in range(n_groups):
        if not ctx.owns(g):
            continue
        a, b = f"g{g}a", f"g{g}b"
        path = FluidPath(
            links=((net.link_for(_find_link(sim, f"{a}.access"), "ab"), 1.0),
                   (net.link_for(_find_link(sim, f"{b}.access"), "ba"), 1.0)),
            rtt=2.0 * (_pair_latency(a, b) + 0.001),
            sites=(a, b), cloud=cloud)
        dst = f"8.9.{g}.2"
        net.add_route(a, dst, path)
        # Fluid phase first (done by ~t=4), packet phase after t=10 —
        # no packet bytes in flight while the solver is measuring, so
        # the per-partition solvers see the serial run's utilization.
        sim.call_at(2.0 + 0.37 * g,
                    lambda gg=g, aa=a, dd=dst: flows.__setitem__(
                        gg, net.open(aa, dd,
                                     size_bytes=int(fluid_mb * 1e6),
                                     ramp=False, name=f"bulk{gg}")))
        sim.call_at(9.5 + 0.11 * g,
                    lambda h=hosts[b]: sim.process(ttcp_receiver(h)))
        peer_ip = IPv4Address(f"8.9.{(g + 1) % n_groups}.2")
        sim.call_at(10.0 + 0.29 * g,
                    lambda h=hosts[a], ip=peer_ip, o=ttcp, kk=g:
                    sim.process(_record_ttcp(sim, h, ip,
                                             int(packet_mb * 1e6), o, kk)))
    ctx.run(sim, cloud, horizon)
    shards: dict[int, dict] = {}
    for g in range(n_groups):
        if not ctx.owns(g):
            continue
        flow = flows.get(g)
        shards[g] = {
            "fluid": {"state": flow.state if flow else None,
                      "delivered": float(flow.delivered) if flow else 0.0},
            "ttcp": ttcp.get(g),
        }
    if ctx.serial:
        return sim, _merge_fluid_mix(shards)
    return sim, shards


@pdes_merger("pdes_fluid_mix")
def _merge_fluid_mix(shards: dict) -> dict:
    return {
        "groups": {str(g): shards[g] for g in sorted(shards)},
        "fluid_done": sum(1 for s in shards.values()
                          if s["fluid"]["state"] == "done"),
        "ttcp_done": sum(1 for s in shards.values() if s["ttcp"]),
        "fluid_mbytes": sum(s["fluid"]["delivered"]
                            for s in shards.values()) / 1e6,
    }

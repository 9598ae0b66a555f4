"""VM live-migration scenarios (Tables III-V, Figs 9-11, the pre-copy
ablation).

``wan_vm`` puts VMs on the Table I real-WAN testbed — a full WAVNet
mesh with a hypervisor on every site — and live-migrates the last one
around one of four workloads. ``migration_timeline`` migrates a VM
between two hosts of a native LAN, an emulated WAVNet WAN or IPOP, with
or without a netperf stream to it.
"""

from __future__ import annotations

import numpy as np

from repro.exp.spec import scenario
from repro.net.addresses import IPv4Address
from repro.sim.engine import Simulator
from repro.vm.dirty import HotColdDirtyModel
from repro.vm.hypervisor import MIGRATION_PORT, Hypervisor

__all__ = ["HEAT_GATHER_EVERY", "HEAT_ITERATIONS_PER_M", "TIMELINE_MIGRATE_AT",
           "TIMELINE_VM_MB", "migration_timeline", "wan_vm"]

# Fig 11's heat job: Jacobi sweeps to convergence grow with the grid
# dimension; 24*m keeps the WAN phase (one halo RTT per iteration)
# dominant, as in the paper.
HEAT_ITERATIONS_PER_M = 24
HEAT_GATHER_EVERY = 4
HEAT_BASE_FLOPS = 4e8


def _report(report) -> dict:
    return {"total_s": report.total_time, "downtime_s": report.downtime,
            "rounds": report.n_rounds, "bytes": report.bytes_transferred}


@scenario("wan_vm")
def wan_vm(seed: int = 0, sites: tuple = ("hku1", "hku2", "siat", "sinica"),
           vms: tuple = ("siat",), to: str = "hku2", memory_mb: int = 48,
           dirty: tuple = (0.01, 10_000.0, 50.0), tcp_mss: int = 1460,
           settle: float = 3.0, app: str = "", clients: tuple = (),
           files: tuple = ("/file1k",), requests: int = 0, concurrency: int = 1,
           duration: float = 8.0, migrate_at: float = 0.0, grid: int = 64):
    """Table I sites in a full WAVNet mesh, a hypervisor on each, one VM
    per ``vms`` entry (10.99.1.1, .2, ...; ``dirty`` is the hot/cold
    dirty model), the last of which live-migrates to ``to``. After
    ``settle`` s, ``app`` runs around the migration:

    * ``"ab"`` (Tables III-IV) — each client runs ApacheBench against the
      first VM before and after the migration: ``requests`` requests for
      the first file after two warmups (connect ms, min / mean / max), or
      when ``requests`` is 0, ``duration`` s at ``concurrency`` per file
      (req/s);
    * ``"timeline"`` (Fig 10) — the first client runs ``concurrency`` ab
      workers and a 4 Hz ping for ``duration`` s, and the migration
      starts ``migrate_at`` s in;
    * ``"heat"`` (Fig 11) — an MPI heat job on a ``grid``-square grid,
      one rank per VM; the migration starts ``migrate_at`` s in, or
      never when ``to`` is empty;
    * ``""`` (Table V) — the migration alone.
    """
    from repro.apps.ab import ApacheBench
    from repro.apps.httpd import HttpServer
    from repro.apps.mpi import MpiJob, heat_distribution_program
    from repro.apps.ping import Pinger
    from repro.scenarios.sites import build_real_wan

    sim = Simulator(seed=seed)
    wan = build_real_wan(sim, site_names=sites, tcp_mss=tcp_mss)
    sim.run_coro(wan.env.start_all())
    sim.run_coro(wan.env.connect_full_mesh())
    vmms = {name: Hypervisor(wh.host, wh.driver.attach_port)
            for name, wh in wan.hosts.items()}
    guests = []
    for i, site in enumerate(vms):
        vm = vmms[site].create_vm(f"vm{i}", memory_mb=memory_mb,
                                  dirty_model=HotColdDirtyModel(*dirty),
                                  tcp_mss=tcp_mss)
        vm.configure_network(IPv4Address(f"10.99.1.{i + 1}"), "10.99.0.0/16")
        guests.append(vm)
    ips = [vm.ip for vm in guests]
    if app in ("ab", "timeline"):
        HttpServer(guests[0].guest)
    if settle:
        sim.run(until=sim.timeout(settle))

    def migrate():
        return vmms[vms[-1]].migrate(guests[-1], vmms[to], wan.host(to).virtual_ip)

    def migrate_later():
        yield sim.timeout(migrate_at)
        return (yield sim.process(migrate()))

    payload: dict = {}
    if app == "ab":
        def probe(client):
            host = wan.host(client).host
            if not requests:
                return [sim.run_coro(ApacheBench(host, ips[0], path=path,
                                                 concurrency=concurrency)
                                     .run_for(duration)).requests_per_second
                        for path in files]
            # Two warmups absorb first-contact effects (virtual-LAN ARP
            # resolution) that ab's own output would show as an outlier.
            sim.run_coro(ApacheBench(host, ips[0], path=files[0]).run_requests(2))
            return list(sim.run_coro(ApacheBench(host, ips[0], path=files[0])
                                     .run_requests(requests)).connect_ms())

        payload["before"] = {c: probe(c) for c in clients}
        report = sim.run_coro(migrate())
        payload["after"] = {c: probe(c) for c in clients}
    elif app == "timeline":
        t0 = sim.now
        client = wan.host(clients[0]).host
        ab = ApacheBench(client, ips[0], path=files[0], concurrency=concurrency)
        ab_proc = sim.process(ab.run_for(duration))
        ping_proc = sim.process(Pinger(client.stack, ips[0], interval=0.25,
                                       timeout=1.0).run(int(duration / 0.25) - 8))
        mig_proc = sim.process(migrate_later())
        sim.run(until=ab_proc)
        sim.run(until=ping_proc)
        report = mig_proc.value
        samples = ping_proc.value.samples
        mig_end = migrate_at + report.total_time
        ab_t, ab_r = ab.report.throughput_series(1.0)
        ab_t = ab_t - t0

        def rtt_mean(a, b):
            return float(np.mean([rtt * 1000 for (ts, rtt) in samples
                                  if rtt is not None and a <= ts - t0 < b]))

        def ab_mean(a, b):
            sel = (ab_t >= a) & (ab_t < b)
            return float(np.mean(ab_r[sel])) if sel.any() else 0.0

        lost = [ts - t0 for (ts, rtt) in samples if rtt is None]
        payload.update(
            rtt_before=rtt_mean(1, migrate_at),
            rtt_after=rtt_mean(mig_end + 2, duration),
            ab_before=ab_mean(1, migrate_at),
            ab_during=ab_mean(migrate_at, mig_end),
            ab_after=ab_mean(mig_end + 2, duration),
            lost=len(lost),
            lost_in_window=sum(1 for t in lost
                               if migrate_at - 1 <= t <= mig_end + 2))
    elif app == "heat":
        job = MpiJob([vm.guest for vm in guests], ips,
                     heat_distribution_program(grid, HEAT_ITERATIONS_PER_M * grid,
                                               gather_every=HEAT_GATHER_EVERY),
                     base_flops=HEAT_BASE_FLOPS)
        run_proc = sim.process(job.run())
        mig_proc = sim.process(migrate_later()) if to else None
        sim.run(until=run_proc)
        payload["seconds"] = run_proc.value
        report = mig_proc.value if mig_proc and mig_proc.triggered else None
    else:
        report = sim.run_coro(migrate())
    payload["migration"] = _report(report) if report else None
    return sim, payload


# migration_timeline's VM (the paper's 256 MB scaled down), and when its
# migration starts under a stream.
TIMELINE_VM_MB = 64
TIMELINE_MIGRATE_AT = 10.0


@scenario("migration_timeline")
def migration_timeline(seed: int = 0, stack: str = "lan",
                       bandwidth_mbps: float = 100.0, tcp_mss: int = 8192,
                       dirty: tuple = (0.02, 2000, 5), max_rounds: int = 30,
                       stream_s: float = 0.0):
    """A VM migrates from one host to another over ``stack``: ``"lan"``
    (one switch, a bridge per host), ``"wavnet"`` (three NATed hosts on
    an emulated WAN) or ``"ipop"``, whose VM sits behind the source node
    and whose migration is the memory image streamed over the overlay,
    after which the directory entry stays stale (Fig 9).

    With ``stream_s``, a third host runs netperf to the VM for that long,
    polled every 0.5 s, and the migration starts ``TIMELINE_MIGRATE_AT``
    s in: the payload is the rate series and the migration's duration.
    Without, the VM migrates at once with at most ``max_rounds`` pre-copy
    rounds (0 is stop-and-copy) and the payload is the migration report.
    """
    from repro.apps.netperf import netperf_stream, netserver

    sim = Simulator(seed=seed)
    bandwidth = bandwidth_mbps * 1e6
    model = HotColdDirtyModel(*dirty)
    if stack == "lan":
        from repro.net.l2 import Bridge, patch
        from repro.scenarios.builder import make_lan
        from repro.vm.hypervisor import bridge_attach

        lan = make_lan(sim, 3 if stream_s else 2, subnet="172.16.0.0/24",
                       name="dc", link_bandwidth_bps=bandwidth, tcp_mss=tcp_mss)
        vmms = []
        for phys in lan.hosts[:2]:
            bridge = Bridge(sim, name=f"{phys.name}.br0")
            patch(bridge.new_port("uplink"), lan.switch.new_port())
            vmms.append(Hypervisor(phys, bridge_attach(bridge)))
        vm_ip, vm_net = "172.16.0.100", "172.16.0.0/24"
        client, dest_ip = lan.hosts[-1], IPv4Address("172.16.0.11")
    elif stack == "wavnet":
        from repro.scenarios.wavnet_env import WavnetEnvironment

        env = WavnetEnvironment(sim, default_latency=0.0005)
        for name in ("src", "dst", "cli"):
            env.add_host(name, access_bandwidth_bps=bandwidth, tcp_mss=tcp_mss)
        sim.run_coro(env.start_all())
        sim.run_coro(env.connect_full_mesh())
        vmms = [Hypervisor(env.hosts[n].host, env.hosts[n].driver.attach_port)
                for n in ("src", "dst")]
        vm_ip, vm_net = "10.99.1.1", "10.99.0.0/16"
        client, dest_ip = env.hosts["cli"].host, env.hosts["dst"].virtual_ip
    if stack == "ipop":
        vm, client, move = _ipop_vm(sim, model, bandwidth, tcp_mss)
    else:
        vm = vmms[0].create_vm("vm", memory_mb=TIMELINE_VM_MB, dirty_model=model,
                               tcp_mss=tcp_mss)
        vm.configure_network(vm_ip, vm_net)
        if not stream_s:
            report = sim.run_coro(vmms[0].migrate(vm, vmms[1], dest_ip, max_rounds))
            return sim, {"migration": _report(report)}

        def move():
            yield sim.process(vmms[0].migrate(vm, vmms[1], dest_ip, max_rounds))
            # The hypervisor's "migrate" span covers connect..resume.
            return sim.trace.spans("migrate")[-1]["dur"]

    def migrate_later():
        yield sim.timeout(TIMELINE_MIGRATE_AT)
        return (yield from move())

    sim.process(netserver(vm.guest))
    sim.run(until=sim.timeout(2.0))
    t_start = sim.now
    stream = sim.process(netperf_stream(client, vm.ip, duration=stream_s,
                                        interval=0.5))
    mig = sim.process(migrate_later())
    sim.run(until=stream)
    if not mig.triggered:
        sim.run(until=mig)  # a slow migration outlives the stream
    return sim, {"times": [t - t_start for t in stream.value.times],
                 "rates_mbps": stream.value.rates_mbps,
                 "migration_s": mig.value}


def _ipop_vm(sim, model, bandwidth, tcp_mss):
    """Fig 9's IPOP case: three NATed IPOP nodes, a VM behind ``src``,
    and the migration as a process that streams the memory image to
    ``dst`` over the overlay, then pauses the VM and detaches it from
    ``src`` (the directory is never updated, so the stream stalls)."""
    from repro.baselines.ipop import PHANTOM_GATEWAY, IpopOverlay
    from repro.net.tcp import drain_bytes, stream_bytes
    from repro.net.wan import WanCloud
    from repro.scenarios.builder import make_natted_site
    from repro.vm.machine import VirtualMachine

    cloud = WanCloud(sim, default_latency=0.0005)
    overlay = IpopOverlay(sim)
    hosts = []
    for i, name in enumerate(("src", "dst", "cli")):
        site = make_natted_site(sim, cloud, name, f"8.7.0.{i + 1}",
                                lan_subnet=f"192.168.{70 + i}.0/24",
                                access_bandwidth_bps=bandwidth, tcp_mss=tcp_mss)
        overlay.add_node(site.hosts[0], f"10.128.0.{i + 1}", nat=site.nat)
        hosts.append(site.hosts[0])
    sim.run_coro(overlay.build_ring())
    node_src = overlay.nodes["src.h0"]
    vm = VirtualMachine(sim, "vm", TIMELINE_VM_MB, hosts[0].mac_mint,
                        dirty_model=model, tcp_mss=tcp_mss)
    vm.configure_network("10.128.0.100", "10.128.0.0/16", gateway=PHANTOM_GATEWAY)
    vm.guest.stack.arp_cache[PHANTOM_GATEWAY] = (node_src._bridge_mac, float("inf"))
    node_src.attach_vm_port(vm.vif.port, vm.ip, vm.mac, "vif-vm")

    def move():
        t0 = sim.now
        listener = hosts[1].tcp.listen(MIGRATION_PORT)

        def sink():
            conn = yield listener.accept()
            yield from drain_bytes(conn)

        sim.process(sink())
        conn = hosts[0].tcp.connect(IPv4Address("10.128.0.2"), MIGRATION_PORT)
        yield conn.wait_established()
        yield from stream_bytes(conn, vm.memory_bytes())
        conn.close()
        vm.pause()
        node_src.detach_vm_ip(vm.ip)
        yield sim.timeout(0.15)
        return sim.now - t0

    return vm, hosts[2], move

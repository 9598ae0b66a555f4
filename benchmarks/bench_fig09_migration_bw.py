"""Figure 9 — VM network bandwidth during live migration (emulated WAN).

netperf TCP_STREAM to a 256 MB VM, polled every 500 ms; migration is
triggered mid-stream. Paper results:

* LAN     — ~95% of native throughout; migration takes ~20 s.
* WAVNet  — ~60% of native; migration <30 s; the netperf session
  continues seamlessly after the gratuitous ARP.
* IPOP    — <10% of native; migration ~130 s; after the VM moves the
  session STALLS (the overlay keeps routing to the source host).

We reproduce all three curves with a scaled VM (64 MB) so the packet-
level simulation stays tractable; timing ratios between stacks are what
matter, not absolute seconds.
"""

import numpy as np

from repro.analysis.tables import ShapeCheck, render_series
from repro.apps.netperf import netperf_stream, netserver
from repro.baselines.ipop import PHANTOM_GATEWAY, IpopOverlay
from repro.net.addresses import IPv4Address
from repro.net.l2 import Bridge, patch
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_lan, make_natted_site
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator
from repro.vm.dirty import HotColdDirtyModel
from repro.vm.hypervisor import Hypervisor, bridge_attach

VM_MB = 64
LAN_BW = 100e6
WAN_BW = 100e6
POLL = 0.5
MIGRATE_AT = 10.0
TOTAL = 60.0
DIRTY = dict(hot_fraction=0.02, hot_rate=2000, cold_rate=5)
# LAN/WAVNet run a jumbo-segment abstraction to keep the packet-level
# simulation tractable; IPOP keeps 1460 (its 1280 B P2P MTU + host 1500
# MTU fragmentation is part of what is being measured).
MSS = 8192


def timeline_lan():
    """Native LAN: migration between two hosts on one switch."""
    sim = Simulator(seed=61)
    lan = make_lan(sim, 3, subnet="172.16.0.0/24", name="dc",
                   link_bandwidth_bps=LAN_BW, tcp_mss=MSS)
    src, dst, client = lan.hosts
    vmms = []
    for phys in (src, dst):
        bridge = Bridge(sim, name=f"{phys.name}.br0")
        patch(bridge.new_port("uplink"), lan.switch.new_port())
        vmms.append(Hypervisor(phys, bridge_attach(bridge)))
    vm = vmms[0].create_vm("vm", memory_mb=VM_MB,
                           dirty_model=HotColdDirtyModel(**DIRTY), tcp_mss=MSS)
    vm.configure_network("172.16.0.100", "172.16.0.0/24")
    return _run(sim, client, IPv4Address("172.16.0.100"), vm, vmms,
                IPv4Address("172.16.0.11"))


def timeline_wavnet():
    sim = Simulator(seed=62)
    env = WavnetEnvironment(sim, default_latency=0.0005)
    for name in ("src", "dst", "cli"):
        env.add_host(name, access_bandwidth_bps=WAN_BW, tcp_mss=MSS)
    sim.run(until=sim.process(env.start_all()))
    sim.run(until=sim.process(env.connect_full_mesh()))
    vmms = {n: Hypervisor(env.hosts[n].host, env.hosts[n].driver.attach_port)
            for n in ("src", "dst")}
    vm = vmms["src"].create_vm("vm", memory_mb=VM_MB,
                               dirty_model=HotColdDirtyModel(**DIRTY), tcp_mss=MSS)
    vm.configure_network("10.99.1.1", "10.99.0.0/16")
    return _run(sim, env.hosts["cli"].host, IPv4Address("10.99.1.1"), vm,
                [vmms["src"], vmms["dst"]], env.hosts["dst"].virtual_ip)


def timeline_ipop():
    """IPOP: VM attached behind the source node; the directory entry is
    never updated, so the stream stalls after migration. Migration
    traffic itself crosses the IPOP overlay (slow)."""
    sim = Simulator(seed=63)
    cloud = WanCloud(sim, default_latency=0.0005)
    overlay = IpopOverlay(sim)
    sites = {}
    for i, name in enumerate(("src", "dst", "cli")):
        site = make_natted_site(sim, cloud, name, f"8.7.0.{i + 1}",
                                lan_subnet=f"192.168.{70 + i}.0/24",
                                access_bandwidth_bps=WAN_BW, tcp_mss=1460)
        overlay.add_node(site.hosts[0], f"10.128.0.{i + 1}", nat=site.nat)
        sites[name] = site
    sim.run(until=sim.process(overlay.build_ring()))
    node_src = overlay.nodes["src.h0"]
    node_dst = overlay.nodes["dst.h0"]
    vmm_src = Hypervisor(sites["src"].hosts[0],
                         lambda port, label: node_src.attach_vm_port(
                             port, IPv4Address("10.128.0.100"), None, label))
    # attach_vm_port needs the MAC: create VM first, then attach manually.
    from repro.vm.machine import VirtualMachine
    vm = VirtualMachine(sim, "vm", VM_MB, sites["src"].hosts[0].mac_mint,
                        dirty_model=HotColdDirtyModel(**DIRTY), tcp_mss=1460)
    vm.configure_network("10.128.0.100", "10.128.0.0/16",
                         gateway=PHANTOM_GATEWAY)
    vm.guest.stack.arp_cache[PHANTOM_GATEWAY] = (node_src._bridge_mac,
                                                 float("inf"))
    node_src.attach_vm_port(vm.vif.port, vm.ip, vm.mac, "vif-vm")
    vm.current_host = "src"

    client = sites["cli"].hosts[0]
    sim.process(netserver(vm.guest))
    warm = sim.timeout(2.0)
    sim.run(until=warm)
    t_start = sim.now
    p = sim.process(netperf_stream(client, IPv4Address("10.128.0.100"),
                                   duration=TOTAL, interval=POLL))

    def migrate(sim):
        yield sim.timeout(MIGRATE_AT)
        t0 = sim.now
        # Migration transfers VM memory between the hosts *over IPOP*.
        from repro.net.tcp import drain_bytes, stream_bytes
        listener = sites["dst"].hosts[0].tcp.listen(8002)

        def sink(sim):
            conn = yield listener.accept()
            yield from drain_bytes(conn)

        sim.process(sink(sim))
        conn = sites["src"].hosts[0].tcp.connect(IPv4Address("10.128.0.2"), 8002)
        yield conn.wait_established()
        yield from stream_bytes(conn, vm.memory_bytes())
        conn.close()
        # Cutover: source node forgets the VM; directory stays stale.
        vm.pause()
        node_src.detach_vm_ip(vm.ip)
        yield sim.timeout(0.15)
        return sim.now - t0

    mig = sim.process(migrate(sim))
    sim.run(until=p)
    if not mig.triggered:
        sim.run(until=mig)  # IPOP's slow migration outlives the stream
    result = p.value
    result.times = [t - t_start for t in result.times]
    return result, mig.value


def _run(sim, client_host, vm_ip, vm, vmms, dest_ip):
    sim.process(netserver(vm.guest))
    sim.run(until=sim.timeout(2.0))
    t_start = sim.now
    p = sim.process(netperf_stream(client_host, vm_ip, duration=TOTAL,
                                   interval=POLL))

    def migrate(sim):
        yield sim.timeout(MIGRATE_AT)
        report = yield sim.process(vmms[0].migrate(vm, vmms[1], dest_ip))
        return report

    mig = sim.process(migrate(sim))
    sim.run(until=p)
    if not mig.triggered:
        sim.run(until=mig)
    result = p.value
    result.times = [t - t_start for t in result.times]
    # Migration duration comes from the trace, not the report object —
    # the "migrate" span the hypervisor opened covers connect..resume.
    span = sim.trace.spans("migrate")[-1]
    return result, span["dur"]


def run_experiment():
    out = {}
    out["LAN"] = timeline_lan()
    out["WAVNet"] = timeline_wavnet()
    out["IPOP"] = timeline_ipop()
    return out


def test_fig09_migration_bw(run_once, emit):
    out = run_once(run_experiment)
    times = out["LAN"][0].times
    series = {}
    for name in ("LAN", "WAVNet", "IPOP"):
        rates = out[name][0].rates_mbps
        series[name] = [f"{r:.1f}" for r in rates[:len(times)]]
    emit(render_series("Figure 9 - VM netperf Mbps during live migration "
                       f"(migration at t={MIGRATE_AT:.0f}s, 500ms polls)",
                       "t(s)", [f"{t:.1f}" for t in times[:len(series['LAN'])]],
                       series))
    emit(f"migration time: LAN={out['LAN'][1]:.1f}s  WAVNet={out['WAVNet'][1]:.1f}s  "
         f"IPOP={out['IPOP'][1]:.1f}s")
    check = ShapeCheck("Fig 9")

    def phase_mean(result, t0, t1):
        t, r = np.asarray(result.times), np.asarray(result.rates_mbps)
        sel = (t >= t0) & (t < t1)
        return float(r[sel].mean()) if sel.any() else 0.0

    lan_res, lan_mig = out["LAN"]
    wav_res, wav_mig = out["WAVNet"]
    ipop_res, ipop_mig = out["IPOP"]
    lan_pre = phase_mean(lan_res, 2, MIGRATE_AT)
    wav_pre = phase_mean(wav_res, 2, MIGRATE_AT)
    ipop_pre = phase_mean(ipop_res, 2, MIGRATE_AT)
    check.expect("pre-migration: LAN ~ native (>=70 Mbps)", lan_pre >= 70,
                 f"{lan_pre:.1f}")
    check.expect("pre-migration: WAVNet >= 50% of LAN",
                 wav_pre >= 0.5 * lan_pre, f"{wav_pre:.1f} vs {lan_pre:.1f}")
    check.expect("pre-migration: IPOP <= 25% of LAN",
                 ipop_pre <= 0.25 * lan_pre, f"{ipop_pre:.1f} vs {lan_pre:.1f}")
    check.expect("migration: WAVNet comparable to LAN (< 2.5x)",
                 wav_mig < 2.5 * lan_mig, f"{wav_mig:.1f} vs {lan_mig:.1f}")
    check.expect("migration: IPOP much slower (> 3x LAN)",
                 ipop_mig > 3 * lan_mig, f"{ipop_mig:.1f} vs {lan_mig:.1f}")
    # Post-migration behaviour.
    lan_post = phase_mean(lan_res, MIGRATE_AT + lan_mig + 5, TOTAL)
    wav_post = phase_mean(wav_res, MIGRATE_AT + wav_mig + 5, TOTAL)
    ipop_post = phase_mean(ipop_res, MIGRATE_AT + ipop_mig + 5, TOTAL)
    check.expect("post-migration: LAN session continues", lan_post >= 0.7 * lan_pre,
                 f"{lan_post:.1f}")
    check.expect("post-migration: WAVNet session continues",
                 wav_post >= 0.7 * wav_pre, f"{wav_post:.1f} vs pre {wav_pre:.1f}")
    check.expect("post-migration: IPOP session stalls (< 5% of its pre rate)",
                 ipop_post <= 0.05 * max(ipop_pre, 0.1),
                 f"{ipop_post:.2f} vs pre {ipop_pre:.1f}")
    emit(check.render())
    check.print_and_assert()

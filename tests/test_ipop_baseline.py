"""Tests for the IPOP comparator: connectivity, overhead, relaying,
bounded direct links, and migration blindness."""


from repro.baselines.ipop import IpopConfig, IpopOverlay
from repro.net.addresses import IPv4Address
from repro.net.icmp import Pinger
from repro.net.tcp import drain_bytes, stream_bytes
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_natted_site
from repro.sim import Simulator


def build_ipop(n_nodes=3, config=None, cloud_latency=0.010, access_bw=100e6,
               seed=31, mss=1460):
    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=cloud_latency)
    overlay = IpopOverlay(sim, config=config)
    sites = []
    for i in range(n_nodes):
        site = make_natted_site(sim, cloud, f"s{i}", f"8.4.0.{i + 1}",
                                lan_subnet=f"192.168.{i + 1}.0/24",
                                access_bandwidth_bps=access_bw, tcp_mss=mss)
        overlay.add_node(site.hosts[0], f"10.128.0.{i + 1}", nat=site.nat)
        sites.append(site)
    built = sim.process(overlay.build_ring())
    sim.run(until=built)
    return sim, overlay, sites


class TestIpopConnectivity:
    def test_ring_links_established(self):
        sim, overlay, _sites = build_ipop(4)
        for node in overlay.nodes.values():
            assert len(node.neighbors) >= 2

    def test_ping_across_overlay(self):
        sim, overlay, _sites = build_ipop(3)
        a = overlay.nodes["s0.h0"]
        proc = sim.process(Pinger(a.host.stack, IPv4Address("10.128.0.2"),
                                  interval=0.5).run(3))
        sim.run(until=proc)
        assert proc.value.lost == 0

    def test_latency_close_to_physical_on_long_paths(self):
        """Table II's observation: per-packet overhead is amortized by
        WAN latency, so IPOP RTT ~ physical RTT + processing."""
        sim, overlay, _sites = build_ipop(2, cloud_latency=0.037)
        a = overlay.nodes["s0.h0"]
        proc = sim.process(Pinger(a.host.stack, IPv4Address("10.128.0.2"),
                                  interval=0.5).run(3))
        sim.run(until=proc)
        physical_rtt = 2 * (0.037 + 2 * 0.0005 + 2 * 0.0001)
        overhead = proc.value.min_rtt() - physical_rtt
        assert 0 < overhead < 0.01

    def test_tcp_works_over_overlay(self):
        sim, overlay, _sites = build_ipop(2)
        a = overlay.nodes["s0.h0"].host
        b = overlay.nodes["s1.h0"].host
        listener = b.tcp.listen(5001)
        got = {}

        def server(sim):
            conn = yield listener.accept()
            got["n"] = yield from drain_bytes(conn)

        def client(sim):
            conn = a.tcp.connect(IPv4Address("10.128.0.2"), 5001)
            yield conn.wait_established()
            yield from stream_bytes(conn, 200_000)
            conn.close()

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run(until=sim.now + 300)
        assert got.get("n") == 200_000


class TestIpopStructuralHandicaps:
    def test_endpoint_processing_caps_throughput(self):
        """Fig 7's <20%-of-native on fast links: the user-level stack is
        the bottleneck, not the wire."""
        sim, overlay, _sites = build_ipop(2, cloud_latency=0.001, access_bw=100e6)
        a = overlay.nodes["s0.h0"].host
        b = overlay.nodes["s1.h0"].host
        listener = b.tcp.listen(5001)
        done = {}

        def server(sim):
            conn = yield listener.accept()
            done["n"] = yield from drain_bytes(conn)
            done["t"] = sim.now

        def client(sim):
            conn = a.tcp.connect(IPv4Address("10.128.0.2"), 5001)
            yield conn.wait_established()
            done["t0"] = sim.now
            yield from stream_bytes(conn, 2_000_000)
            conn.close()

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run(until=sim.now + 300)
        goodput = done["n"] * 8 / (done["t"] - done["t0"])
        # 350 us/packet one way caps near 1460*8/350e-6 ~ 33 Mbps; with
        # ack-path processing it lands well under 35% of the wire.
        assert goodput < 0.35 * 100e6

    def test_far_ring_nodes_relay_through_intermediates(self):
        config = IpopConfig(max_direct=0, n_shortcuts=0)  # force relaying
        sim, overlay, _sites = build_ipop(6, config=config)
        nodes = sorted(overlay.nodes.values(), key=lambda n: n.ring_id)
        src = nodes[0]
        dst = nodes[len(nodes) // 2]  # ring-diametric target
        proc = sim.process(Pinger(src.host.stack, dst.virtual_ip,
                                  interval=0.5, timeout=3.0).run(3))
        sim.run(until=proc)
        assert proc.value.lost == 0
        relays = sum(n.packets_relayed for n in overlay.nodes.values())
        assert relays > 0

    def test_relaying_inflates_rtt(self):
        config = IpopConfig(max_direct=0, n_shortcuts=0)
        sim, overlay, _sites = build_ipop(6, config=config, cloud_latency=0.020)
        nodes = sorted(overlay.nodes.values(), key=lambda n: n.ring_id)
        src, dst = nodes[0], nodes[3]
        proc = sim.process(Pinger(src.host.stack, dst.virtual_ip,
                                  interval=0.5, timeout=5.0).run(3))
        sim.run(until=proc)
        direct_rtt = 2 * 0.0212
        assert proc.value.min_rtt() > 1.5 * direct_rtt

    def test_direct_link_budget_respected(self):
        config = IpopConfig(max_direct=1)
        sim, overlay, _sites = build_ipop(5, config=config)
        src = overlay.nodes["s0.h0"]

        def burst(sim):
            for i in (1, 2, 3, 4):
                p = sim.process(Pinger(src.host.stack,
                                       IPv4Address(f"10.128.0.{i + 1}"),
                                       interval=0.2, timeout=2.0).run(2))
                yield p

        proc = sim.process(burst(sim))
        sim.run(until=proc)
        assert len(src.direct) <= 1


class TestIpopMigrationBlindness:
    def test_stale_directory_after_vm_moves(self):
        """Fig 9's stall: packets keep flowing to the source host after
        the VM has moved, because the DHT entry is never updated."""
        from repro.net.addresses import MacAddress
        from repro.net.l2 import Port

        sim, overlay, _sites = build_ipop(3)
        src_node = overlay.nodes["s0.h0"]
        dst_node = overlay.nodes["s1.h0"]
        client = overlay.nodes["s2.h0"]

        class FakeVif:
            def __init__(self):
                self.port = Port(self, "fakevif")
                self.frames = []

            def on_frame(self, frame, port):
                self.frames.append(frame)

        vif = FakeVif()
        vm_ip = IPv4Address("10.128.0.100")
        src_node.attach_vm_port(vif.port, vm_ip, MacAddress(0xAA))
        assert overlay.directory.lookup(vm_ip) == "s0.h0"
        # "Migrate": source forgets the VM; destination attaches it.
        src_node.detach_vm_ip(vm_ip)
        vif2 = FakeVif()
        # NB: attach on destination re-registers, but IPOP's failure mode
        # is the window where caches/peers still target the old node; we
        # model the paper's observed behaviour by checking delivery drops
        # at the stale node.
        before = src_node.packets_dropped
        proc = sim.process(Pinger(client.host.stack, vm_ip,
                                  interval=0.3, timeout=1.0).run(3))
        sim.run(until=proc)
        assert proc.value.lost == 3
        assert src_node.packets_dropped > before


class TestIpopVmBridge:
    def test_vm_behind_a_node_reaches_the_overlay_by_proxy_arp(self):
        """The IPOP paper's VM mode: a guest on the node's bridge treats
        the whole virtual /16 as on-link, so it ARPs for a remote node's
        address; the node answers with its bridge MAC (proxy ARP),
        tunnels the guest's IP, and hands the reply back to the guest."""
        from repro.vm.machine import VirtualMachine

        sim, overlay, sites = build_ipop(2)
        node = overlay.nodes["s0.h0"]
        vm = VirtualMachine(sim, "vm", 4, sites[0].hosts[0].mac_mint)
        vm.configure_network("10.128.0.100", "10.128.0.0/16")
        node.attach_vm_port(vm.vif.port, vm.ip, vm.mac, "vif-vm")
        remote = IPv4Address("10.128.0.2")
        proc = sim.process(Pinger(vm.guest.stack, remote, interval=0.5).run(3))
        sim.run(until=proc)
        assert vm.guest.stack.arp_cache[remote][0] == node._bridge_mac
        assert proc.value.received == 3
        assert node.packets_delivered >= 3  # the replies, to the guest

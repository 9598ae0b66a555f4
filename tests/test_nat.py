"""Tests for NAT behaviour: mapping, filtering, timeouts, all four types."""

import pytest

from repro.nat.mapping import MappingTable
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.icmp import Pinger
from repro.net.packet import Payload
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_natted_site
from repro.sim import Simulator


def build_two_sites(sim, nat_a="port-restricted", nat_b="port-restricted",
                    udp_timeout=60.0):
    cloud = WanCloud(sim, default_latency=0.010)
    site_a = make_natted_site(sim, cloud, "a", "8.0.0.1", nat_type=nat_a,
                              lan_subnet="192.168.1.0/24", udp_timeout=udp_timeout)
    site_b = make_natted_site(sim, cloud, "b", "8.0.0.2", nat_type=nat_b,
                              lan_subnet="192.168.2.0/24", udp_timeout=udp_timeout)
    return cloud, site_a, site_b


class TestMappingTable:
    IIP = IPv4Address("192.168.1.10")
    DIP = IPv4Address("8.8.8.8")

    def test_outbound_creates_then_reuses_mapping(self):
        table = MappingTable(NatType.FULL_CONE, timeout=60)
        m1 = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        m2 = table.outbound(self.IIP, 5000, self.DIP, 53, now=1.0)
        assert m1 is m2

    def test_cone_mapping_is_endpoint_independent(self):
        table = MappingTable(NatType.FULL_CONE, timeout=60)
        m1 = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        m2 = table.outbound(self.IIP, 5000, IPv4Address("9.9.9.9"), 99, now=0.0)
        assert m1.external_port == m2.external_port

    def test_symmetric_mapping_is_per_destination(self):
        table = MappingTable(NatType.SYMMETRIC, timeout=60)
        m1 = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        m2 = table.outbound(self.IIP, 5000, IPv4Address("9.9.9.9"), 99, now=0.0)
        assert m1.external_port != m2.external_port

    def test_full_cone_accepts_any_inbound(self):
        table = MappingTable(NatType.FULL_CONE, timeout=60)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        stranger = IPv4Address("7.7.7.7")
        assert table.inbound(m.external_port, stranger, 1234, now=1.0) is m

    def test_restricted_cone_filters_by_ip(self):
        table = MappingTable(NatType.RESTRICTED_CONE, timeout=60)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        assert table.inbound(m.external_port, self.DIP, 9999, now=1.0) is m
        assert table.inbound(m.external_port, IPv4Address("7.7.7.7"), 53, now=1.0) is None

    def test_port_restricted_filters_by_endpoint(self):
        table = MappingTable(NatType.PORT_RESTRICTED, timeout=60)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        assert table.inbound(m.external_port, self.DIP, 53, now=1.0) is m
        assert table.inbound(m.external_port, self.DIP, 54, now=1.0) is None

    def test_symmetric_filters_other_destinations(self):
        table = MappingTable(NatType.SYMMETRIC, timeout=60)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        assert table.inbound(m.external_port, self.DIP, 53, now=1.0) is m
        assert table.inbound(m.external_port, IPv4Address("9.9.9.9"), 53, now=1.0) is None

    def test_mapping_expires_after_idle(self):
        table = MappingTable(NatType.FULL_CONE, timeout=10)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        assert table.inbound(m.external_port, self.DIP, 53, now=20.0) is None
        assert table.expired_count == 1

    def test_traffic_refreshes_timeout(self):
        table = MappingTable(NatType.FULL_CONE, timeout=10)
        m = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        assert table.inbound(m.external_port, self.DIP, 53, now=8.0) is m
        assert table.inbound(m.external_port, self.DIP, 53, now=16.0) is m

    def test_expired_mapping_reallocated_fresh(self):
        table = MappingTable(NatType.FULL_CONE, timeout=10)
        m1 = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        m2 = table.outbound(self.IIP, 5000, self.DIP, 53, now=30.0)
        assert m1 is not m2

    def test_distinct_flows_get_distinct_ports(self):
        table = MappingTable(NatType.FULL_CONE, timeout=60)
        m1 = table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        m2 = table.outbound(self.IIP, 5001, self.DIP, 53, now=0.0)
        assert m1.external_port != m2.external_port

    def test_active_count(self):
        table = MappingTable(NatType.FULL_CONE, timeout=10)
        table.outbound(self.IIP, 5000, self.DIP, 53, now=0.0)
        table.outbound(self.IIP, 5001, self.DIP, 53, now=5.0)
        assert table.active_count(now=12.0) == 1


class TestNatBoxDatapath:
    def test_outbound_udp_snat_and_reply(self):
        """Inside host talks UDP to a public server; replies come back."""
        sim = Simulator()
        cloud = WanCloud(sim, default_latency=0.010)
        site = make_natted_site(sim, cloud, "a", "8.0.0.1")
        # Public server directly on the cloud.
        from repro.net.addresses import mac_factory
        from repro.net.l2 import Link
        from repro.net.stack import Host
        mint = mac_factory(prefix=0x02_99_00_00_00_00)
        server = Host(sim, "pub", mint)
        iface = server.add_nic().configure("8.0.0.100", "8.0.0.0/8")
        server.stack.connected_route_for(iface)
        Link(sim, iface.port, cloud.attach("pub"), latency=0.0005, bandwidth_bps=1e9)

        inside = site.hosts[0]
        seen = {}
        srv_sock = server.udp.bind(7000)

        def on_server(_payload, src_ip, src_port):
            seen["from"] = (str(src_ip), src_port)
            srv_sock.sendto(src_ip, src_port, Payload(16, data="reply"))

        srv_sock.handler = on_server
        cli_sock = inside.udp.bind(5555)
        cli_sock.handler = lambda payload, _ip, _port: seen.setdefault("reply", payload.data)
        cli_sock.sendto(IPv4Address("8.0.0.100"), 7000, Payload(16, data="hi"))
        sim.run(until=5)
        assert seen["from"][0] == "8.0.0.1"  # SNATed to the public IP
        assert seen["from"][1] != 5555  # port translated
        assert seen["reply"] == "reply"
        assert site.nat.translated_out >= 1 and site.nat.translated_in >= 1

    def test_unsolicited_inbound_dropped(self):
        sim = Simulator()
        cloud, site_a, site_b = build_two_sites(sim)
        host_a = site_a.hosts[0]
        sock = host_a.udp.bind(5000)
        # Host A sends to B's *public* IP at a port with no mapping.
        sock.sendto(IPv4Address("8.0.0.2"), 12345, Payload(32))
        sim.run(until=2)
        assert site_b.nat.dropped_unsolicited == 1

    def test_ping_inside_to_public(self):
        sim = Simulator()
        cloud, site_a, site_b = build_two_sites(sim)
        host_a = site_a.hosts[0]
        # Ping B's NAT public address (answered by the NAT itself).
        pinger = Pinger(host_a.stack, IPv4Address("8.0.0.2"), interval=0.5)
        proc = sim.process(pinger.run(3))
        sim.run()
        assert proc.value.lost == 0
        # RTT ~ 2*(lan + access + cloud + access) ≈ 21+ ms
        assert proc.value.rtts[-1] == pytest.approx(0.0212, rel=0.2)

    def test_icmp_ident_translated(self):
        sim = Simulator()
        cloud, site_a, _site_b = build_two_sites(sim)
        host_a = site_a.hosts[0]
        proc = sim.process(Pinger(host_a.stack, IPv4Address("8.0.0.2")).run(1))
        sim.run()
        assert proc.value.lost == 0
        assert len(site_a.nat.icmp_mappings) == 1

    def test_open_nat_type_rejected(self):
        from repro.nat.box import NatBox
        from repro.net.addresses import mac_factory
        sim = Simulator()
        with pytest.raises(ValueError):
            NatBox(sim, "x", mac_factory(), nat_type="open")

    def test_nat_type_parse_errors(self):
        with pytest.raises(ValueError):
            NatType.parse("bogus")

    def test_hole_punchable_classification(self):
        assert NatType.FULL_CONE.hole_punchable
        assert NatType.PORT_RESTRICTED.hole_punchable
        assert not NatType.SYMMETRIC.hole_punchable


class TestUdpHolePunchManual:
    """Punch a UDP hole by hand (the primitive WAVNet automates)."""

    def punch(self, nat_a, nat_b, expect_success=True):
        sim = Simulator()
        cloud, site_a, site_b = build_two_sites(sim, nat_a, nat_b)
        a, b = site_a.hosts[0], site_b.hosts[0]
        delivered = []

        # Out-of-band, each side learns the peer's public endpoint (the
        # rendezvous server's job). Here we compute it via the NAT tables.
        sock_a = a.udp.bind(6001)
        sock_b = b.udp.bind(6002)
        pub_b = IPv4Address("8.0.0.2")
        pub_a = IPv4Address("8.0.0.1")
        ext_a = site_a.nat.external_endpoint_for(a.stack.ips[0], 6001, pub_b, 0)[1] \
            if nat_a != "symmetric" else None
        ext_b = site_b.nat.external_endpoint_for(b.stack.ips[0], 6002, pub_a, 0)[1] \
            if nat_b != "symmetric" else None

        sock_a.handler = lambda payload, _ip, _port: delivered.append(("a", payload.data))
        sock_b.handler = lambda payload, _ip, _port: delivered.append(("b", payload.data))

        def side_a(sim):
            # Simultaneous outbound bursts open both NATs.
            for _ in range(3):
                sock_a.sendto(pub_b, ext_b if ext_b else 20000, Payload(8, data="punch-a"))
                yield sim.timeout(0.05)

        def side_b(sim):
            for _ in range(3):
                sock_b.sendto(pub_a, ext_a if ext_a else 20000, Payload(8, data="punch-b"))
                yield sim.timeout(0.05)

        sim.process(side_a(sim))
        sim.process(side_b(sim))
        sim.run(until=3)
        got_a = any(side == "a" for side, _ in delivered)
        got_b = any(side == "b" for side, _ in delivered)
        return got_a and got_b

    def test_punch_full_cone_pair(self):
        assert self.punch("full-cone", "full-cone")

    def test_punch_restricted_cone_pair(self):
        assert self.punch("restricted-cone", "restricted-cone")

    def test_punch_port_restricted_pair(self):
        assert self.punch("port-restricted", "port-restricted")

    def test_punch_mixed_cone(self):
        assert self.punch("full-cone", "port-restricted")

    def test_punch_fails_symmetric_pair(self):
        assert not self.punch("symmetric", "symmetric")

    def test_keepalive_maintains_mapping_across_timeout(self):
        """Without traffic the mapping dies at the NAT timeout; periodic
        2-byte pulses keep it alive (paper §II.B)."""
        sim = Simulator()
        cloud, site_a, site_b = build_two_sites(sim, udp_timeout=10.0)
        a, b = site_a.hosts[0], site_b.hosts[0]
        sock_a = a.udp.bind(6001)
        sock_b = b.udp.bind(6002)
        pub_a, pub_b = IPv4Address("8.0.0.1"), IPv4Address("8.0.0.2")
        ext_a = site_a.nat.external_endpoint_for(a.stack.ips[0], 6001, pub_b, 0)[1]
        ext_b = site_b.nat.external_endpoint_for(b.stack.ips[0], 6002, pub_a, 0)[1]
        late_delivery = []

        def puncher(sock, dst_ip, dst_port, tag, pulse_interval):
            def proc(sim):
                # punch
                sock.sendto(dst_ip, dst_port, Payload(2, data=f"punch-{tag}"))
                # keepalive pulses well past several NAT timeouts
                for _ in range(12):
                    yield sim.timeout(pulse_interval)
                    sock.sendto(dst_ip, dst_port, Payload(2, data="pulse"))
                # then one real message at t >> timeout
                sock.sendto(dst_ip, dst_port, Payload(64, data=f"data-{tag}"))
            return proc

        def receiver(tag):
            def on_datagram(payload, _ip, _port):
                if str(payload.data).startswith("data-"):
                    late_delivery.append((tag, payload.data, sim.now))
            return on_datagram

        sock_a.handler = receiver("a")
        sock_b.handler = receiver("b")
        sim.process(puncher(sock_a, pub_b, ext_b, "a", 5.0)(sim))
        sim.process(puncher(sock_b, pub_a, ext_a, "b", 5.0)(sim))
        sim.run(until=120)
        tags = {t for t, _d, _w in late_delivery}
        assert tags == {"a", "b"}
        assert all(when > 50 for _t, _d, when in late_delivery)

    def test_connection_dies_without_keepalive(self):
        sim = Simulator()
        cloud, site_a, site_b = build_two_sites(sim, udp_timeout=10.0)
        a, b = site_a.hosts[0], site_b.hosts[0]
        sock_a = a.udp.bind(6001)
        sock_b = b.udp.bind(6002)
        pub_a, pub_b = IPv4Address("8.0.0.1"), IPv4Address("8.0.0.2")
        ext_a = site_a.nat.external_endpoint_for(a.stack.ips[0], 6001, pub_b, 0)[1]
        ext_b = site_b.nat.external_endpoint_for(b.stack.ips[0], 6002, pub_a, 0)[1]
        received_b = []

        def side_a(sim):
            sock_a.sendto(pub_b, ext_b, Payload(2, data="punch"))
            yield sim.timeout(30.0)  # silence >> timeout
            sock_a.sendto(pub_b, ext_b, Payload(64, data="late"))

        sock_b.handler = lambda payload, _ip, _port: received_b.append(payload.data)
        sock_b.sendto(pub_a, ext_a, Payload(2, data="punch"))
        sim.process(side_a(sim))
        sim.run(until=60)
        assert "punch" in received_b
        assert "late" not in received_b

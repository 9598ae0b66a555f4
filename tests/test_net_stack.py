"""Tests for ARP, routing, forwarding, ICMP ping, and UDP sockets."""

import math

import pytest

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress, mac_factory
from repro.net.icmp import Pinger
from repro.net.l2 import Link
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, Payload, UdpDatagram, ipv4
from repro.net.stack import Host, Router
from repro.scenarios.builder import host_pair, make_lan
from repro.sim import Simulator


class TestArpAndPing:
    def test_ping_rtt_matches_link_latency(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.005, bandwidth_bps=None)
        pinger = Pinger(a.stack, IPv4Address("10.0.0.2"), interval=0.5)
        proc = sim.process(pinger.run(5))
        sim.run()
        result = proc.value
        assert result.sent == 5 and result.lost == 0
        # Probe 0 includes ARP resolution (as with real ping); the rest
        # measure the pure path RTT.
        assert result.rtts[0] > 0.010
        for rtt in result.rtts[1:]:
            assert rtt == pytest.approx(0.010, rel=0.01)
        # The summary examples/quickstart.py prints.
        assert result.received == 5
        assert result.max_rtt() == result.rtts[0]
        assert result.mean_rtt() == pytest.approx(sum(result.rtts) / 5)

    def test_arp_cache_populated_after_first_packet(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.001)
        proc = sim.process(Pinger(a.stack, IPv4Address("10.0.0.2")).run(1))
        sim.run()
        assert IPv4Address("10.0.0.2") in a.stack.arp_cache
        # B learned A from the ARP request itself.
        assert IPv4Address("10.0.0.1") in b.stack.arp_cache

    def test_first_packet_not_lost_during_arp(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.001)
        proc = sim.process(Pinger(a.stack, IPv4Address("10.0.0.2")).run(1))
        sim.run()
        assert proc.value.lost == 0

    def test_ping_unreachable_counts_loss(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.001)
        pinger = Pinger(a.stack, IPv4Address("10.0.0.99"), interval=0.1, timeout=0.5)
        proc = sim.process(pinger.run(3))
        sim.run()
        assert proc.value.lost == 3
        assert proc.value.received == 0
        assert math.isnan(proc.value.mean_rtt()) and math.isnan(proc.value.max_rtt())

    def test_gratuitous_arp_updates_caches(self):
        sim = Simulator()
        lan = make_lan(sim, 3)
        a, b, c = lan.hosts
        sim.process(Pinger(a.stack, b.stack.ips[0]).run(1))
        sim.run()
        old_mac = a.stack.arp_cache[b.stack.ips[0]][0]
        # Host c claims b's IP (what a migrated VM does).
        c.stack.interfaces[0].ip = b.stack.ips[0]
        c.stack.gratuitous_arp(c.stack.interfaces[0])
        sim.run()
        new_mac = a.stack.arp_cache[b.stack.ips[0]][0]
        assert new_mac == c.stack.interfaces[0].mac
        assert new_mac != old_mac


class TestRouting:
    def build_routed(self, sim):
        """h1 -- r -- h2 across two subnets."""
        mint = mac_factory()
        h1 = Host(sim, "h1", mint)
        h2 = Host(sim, "h2", mint)
        r = Router(sim, "r", mint)
        net1, net2 = IPv4Network("10.1.0.0/24"), IPv4Network("10.2.0.0/24")
        i1 = h1.add_nic().configure(net1.host(2), net1)
        i2 = h2.add_nic().configure(net2.host(2), net2)
        r1 = r.stack.add_interface("eth0", mint()).configure(net1.host(1), net1)
        r2 = r.stack.add_interface("eth1", mint()).configure(net2.host(1), net2)
        for stack, iface in ((h1.stack, i1), (h2.stack, i2), (r.stack, r1), (r.stack, r2)):
            stack.connected_route_for(iface)
        h1.stack.add_route("0.0.0.0/0", i1, gateway=net1.host(1))
        h2.stack.add_route("0.0.0.0/0", i2, gateway=net2.host(1))
        Link(sim, i1.port, r1.port, latency=0.001)
        Link(sim, i2.port, r2.port, latency=0.001)
        return h1, h2, r

    def test_forwarding_across_router(self):
        sim = Simulator()
        h1, h2, r = self.build_routed(sim)
        proc = sim.process(Pinger(h1.stack, IPv4Address("10.2.0.2")).run(2))
        sim.run()
        assert proc.value.lost == 0
        assert r.stack.packets_forwarded >= 4

    def test_rtt_across_router_sums_hops(self):
        sim = Simulator()
        h1, h2, r = self.build_routed(sim)
        proc = sim.process(Pinger(h1.stack, IPv4Address("10.2.0.2"), interval=0.1).run(2))
        sim.run()
        # Second probe rides warm ARP caches: 2 links x 1 ms each way.
        assert proc.value.rtts[1] == pytest.approx(0.004, rel=0.05)

    def test_host_does_not_forward(self):
        sim = Simulator()
        a, b, _link = host_pair(sim)
        assert a.stack.forwarding is False

    def test_longest_prefix_match(self):
        sim = Simulator()
        a, _b, _link = host_pair(sim)
        iface = a.stack.interfaces[0]
        a.stack.add_route("0.0.0.0/0", iface, gateway="10.0.0.2")
        route = a.stack.lookup_route(IPv4Address("10.0.0.7"))
        assert route.network.prefix_len == 24  # connected beats default
        route = a.stack.lookup_route(IPv4Address("8.8.8.8"))
        assert route.network.prefix_len == 0

    def test_no_route_drops(self):
        sim = Simulator()
        mint = mac_factory()
        h = Host(sim, "lonely", mint)
        h.add_nic().configure("10.0.0.1", "10.0.0.0/24")
        # no routes at all
        from repro.net.packet import IcmpMessage, ipv4
        h.stack.send_ip(ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.9.9.9"),
                             IcmpMessage("echo-request", 1, 1)))
        assert h.stack.packets_dropped == 1

    def test_ttl_expiry(self):
        sim = Simulator()
        h1, h2, r = self.build_routed(sim)
        from repro.net.packet import IcmpMessage, ipv4
        pkt = ipv4(IPv4Address("10.1.0.2"), IPv4Address("10.2.0.2"),
                   IcmpMessage("echo-request", 5, 0), ttl=1)
        h1.stack.send_ip(pkt)
        sim.run()
        assert h2.stack.packets_received == 0
        assert r.stack.packets_dropped >= 1


class TestUdpSockets:
    def test_sendto_recvfrom(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002)
        got = []
        b.udp.bind(5000).handler = lambda payload, ip, port: got.append(
            (payload.data, str(ip), port))
        a.udp.bind().sendto(IPv4Address("10.0.0.2"), 5000, Payload(64, data="hello"))
        sim.run()
        assert got == [("hello", "10.0.0.1", 32768)]

    def test_reply_path(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002)
        server = b.udp.bind(5000)
        server.handler = lambda _payload, ip, port: server.sendto(
            ip, port, Payload(32, data="pong"))
        answers = []
        sock = a.udp.bind(6000)
        sock.handler = lambda payload, _ip, port: answers.append((payload.data, port))
        sock.sendto(IPv4Address("10.0.0.2"), 5000, Payload(32, data="ping"))
        sim.run()
        assert answers == [("pong", 5000)]

    def test_double_bind_rejected(self):
        sim = Simulator()
        a, _b, _link = host_pair(sim)
        a.udp.bind(7000)
        with pytest.raises(RuntimeError):
            a.udp.bind(7000)

    def test_ephemeral_ports_unique(self):
        sim = Simulator()
        a, _b, _link = host_pair(sim)
        s1, s2 = a.udp.bind(), a.udp.bind()
        assert s1.port != s2.port

    def test_unmatched_datagram_counted(self):
        sim = Simulator()
        a, b, _link = host_pair(sim)
        sock = a.udp.bind()
        sock.sendto(IPv4Address("10.0.0.2"), 9999, Payload(10))
        sim.run()
        assert b.udp.rx_unmatched == 1

    def test_closed_socket_rejects_io(self):
        sim = Simulator()
        a, _b, _link = host_pair(sim)
        sock = a.udp.bind(1234)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.sendto(IPv4Address("10.0.0.2"), 1, Payload(1))
        # port is reusable after close
        a.udp.bind(1234)


class TestUdpHandlerSockets:
    """``sock.handler`` — the callback way to read a socket."""

    DST = IPv4Address("10.0.0.2")

    def test_handler_gets_payload_and_source(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002)
        got = []
        server = b.udp.bind(5000)
        server.handler = lambda payload, ip, port: got.append(
            (sim.now, payload.data, str(ip), port))
        a.udp.bind(6000).sendto(self.DST, 5000, Payload(64, data="hello"))
        sim.run()
        (when, *rest), = got
        assert rest == ["hello", "10.0.0.1", 6000]
        assert when > 0.002  # called on arrival, inside the receive path

    def test_no_delivery_after_close(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002)
        got = []
        server = b.udp.bind(5000)
        server.handler = lambda *datagram: got.append(datagram)
        sock = a.udp.bind()
        sock.sendto(self.DST, 5000, Payload(10))  # in flight at close
        server.close()
        sim.run()
        sock.sendto(self.DST, 5000, Payload(10))  # sent after close
        sim.run()
        assert got == []
        assert b.udp.rx_unmatched == 2

    def test_handler_reattached_after_rebind(self):
        """A re-bound port is a new socket: until its owner attaches the
        handler again, datagrams to it are dropped like ones to an
        unbound port."""
        sim = Simulator()
        a, b, _link = host_pair(sim)
        got = []

        def handler(payload, _ip, _port):
            got.append(payload.data)

        first = b.udp.bind(5000)
        first.handler = handler
        first.close()
        second = b.udp.bind(5000)
        assert second.handler is None
        sock = a.udp.bind()
        sock.sendto(self.DST, 5000, Payload(10, data="dropped"))
        sim.run()
        assert got == [] and b.udp.rx_unmatched == 1
        second.handler = handler
        sock.sendto(self.DST, 5000, Payload(10, data="handled"))
        sim.run()
        assert got == ["handled"] and b.udp.rx_unmatched == 1


class TestStackCaches:
    """``lookup_route`` and the "is this address mine?" test answer from
    caches; every route or address change must reach the next packet."""

    def build(self, sim):
        """A host with eth0 (10.0.0.1/24) and eth1 (10.1.0.1/24), each port
        recording what it transmits, and ARP answers for both gateways."""
        host = Host(sim, "h", mac_factory())
        wires = {}
        for name, ip, net in (("eth0", "10.0.0.1", "10.0.0.0/24"),
                              ("eth1", "10.1.0.1", "10.1.0.0/24")):
            iface = host.add_nic(name).configure(ip, net)
            host.stack.connected_route_for(iface)
            wires[name] = []
            iface.port.connect(wires[name].append)
        for gw in ("10.0.0.254", "10.1.0.254"):
            host.stack.arp_cache[IPv4Address(gw)] = (MacAddress(0xFE), 0.0)
        host.stack.add_route("0.0.0.0/0", host.stack.interface("eth0"),
                             gateway="10.0.0.254")
        return host, wires

    def send(self, host, dst):
        pkt = ipv4(host.stack.ips[0], IPv4Address(dst), UdpDatagram(1, 2, Payload(10)))
        host.stack.send_ip(pkt)

    def receive(self, host, dst):
        """Hand eth0 a UDP packet for ``dst``; True if the stack kept it."""
        iface = host.stack.interface("eth0")
        pkt = ipv4(IPv4Address("10.0.0.9"), IPv4Address(dst), UdpDatagram(1, 2, Payload(10)))
        before = host.stack.packets_received
        host.stack.receive_frame(iface, EthernetFrame(MacAddress(9), iface.mac,
                                                      ETHERTYPE_IPV4, pkt))
        return host.stack.packets_received == before + 1

    def test_route_added_after_traffic_steers_the_next_packet(self):
        sim = Simulator()
        host, wires = self.build(sim)
        self.send(host, "8.8.8.8")
        assert (len(wires["eth0"]), len(wires["eth1"])) == (1, 0)
        host.stack.add_route("8.8.8.0/24", host.stack.interface("eth1"),
                             gateway="10.1.0.254")
        self.send(host, "8.8.8.8")
        assert (len(wires["eth0"]), len(wires["eth1"])) == (1, 1)

    def test_readdressed_interface_owns_only_its_new_address(self):
        """The DHCP / migration path: configure() over a live address."""
        sim = Simulator()
        host, _wires = self.build(sim)
        assert self.receive(host, "10.0.0.1") and self.receive(host, "10.0.0.255")
        host.stack.interface("eth0").configure("10.0.5.7", "10.0.5.0/24")
        assert not self.receive(host, "10.0.0.1")
        assert not self.receive(host, "10.0.0.255")
        assert self.receive(host, "10.0.5.7") and self.receive(host, "10.0.5.255")

    def test_deconfigured_interface_owns_nothing(self):
        sim = Simulator()
        host, _wires = self.build(sim)
        assert self.receive(host, "10.0.0.1")
        host.stack.interface("eth0").deconfigure()
        assert not self.receive(host, "10.0.0.1")
        assert self.receive(host, "10.1.0.1")

    def test_rejected_configure_keeps_the_previous_address(self):
        sim = Simulator()
        host, _wires = self.build(sim)
        iface = host.stack.interface("eth0")
        with pytest.raises(ValueError):
            iface.configure("10.9.9.9", "10.0.0.0/24")
        assert iface.ip == IPv4Address("10.0.0.1")
        assert iface.network == IPv4Network("10.0.0.0/24")
        assert not self.receive(host, "10.9.9.9")
        assert self.receive(host, "10.0.0.1")

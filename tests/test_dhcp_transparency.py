"""L2-transparency tests: unmodified DHCP over plain LANs and over the
WAVNet virtual LAN (paper §II.B: "protocols such as DHCP can be applied
without any modification")."""


from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.dhcp import DhcpClient, DhcpServer
from repro.net.icmp import Pinger
from repro.net.dhcp import BCAST_IP, DHCP_CLIENT_PORT
from repro.net.packet import IPv4Packet, Payload, UdpDatagram, frame_for
from repro.scenarios.builder import make_lan
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator
from repro.vm.hypervisor import Hypervisor


class TestDhcpOnLan:
    def build(self, sim, n_clients=2):
        lan = make_lan(sim, 1 + n_clients, subnet="192.168.5.0/24", name="lan")
        server_host = lan.hosts[0]
        server = DhcpServer(server_host.stack, server_host.stack.interfaces[0],
                            IPv4Network("192.168.5.0/24"))
        clients = []
        for host in lan.hosts[1:]:
            iface = host.stack.interfaces[0]
            iface.deconfigure()
            host.stack.routes.clear()
            clients.append(DhcpClient(host.stack, iface))
        return server, clients

    def test_lease_acquired(self):
        sim = Simulator()
        server, clients = self.build(sim, 1)
        p = sim.process(clients[0].acquire())
        sim.run(until=p)
        lease = p.value
        assert lease is not None
        assert lease.ip in IPv4Network("192.168.5.0/24")
        assert clients[0].iface.ip == lease.ip

    def test_distinct_leases_per_mac(self):
        sim = Simulator()
        server, clients = self.build(sim, 2)
        p1 = sim.process(clients[0].acquire())
        p2 = sim.process(clients[1].acquire())
        sim.run(until=p1)
        sim.run(until=p2)
        assert p1.value.ip != p2.value.ip

    def test_same_mac_rebinds_same_ip(self):
        sim = Simulator()
        server, clients = self.build(sim, 1)
        p1 = sim.process(clients[0].acquire())
        sim.run(until=p1)
        first = p1.value.ip
        p2 = sim.process(clients[0].acquire())
        sim.run(until=p2)
        assert p2.value.ip == first

    def test_server_ignores_non_dhcp_datagram(self):
        """Anyone on the segment can send to UDP 67: junk is dropped,
        not dereferenced, and the server keeps serving."""
        sim = Simulator()
        server, clients = self.build(sim, 2)
        assert sim.run_coro(clients[0].acquire()) is not None
        junk = clients[0].stack.udp.bind()  # a LAN peer with an address
        for data in ("junk", None):
            junk.sendto(server.iface.ip, 67, Payload(10, data=data))
        sim.run()
        assert sim.run_coro(clients[1].acquire()) is not None
        assert server.offers_made == 2 and server.acks_sent == 2

    def test_same_seed_clients_send_same_xid(self):
        """The xid on the wire depends on the seed alone — not on where
        the client object sits in memory."""
        runs = []
        for _ in range(2):  # both clients alive at once: distinct id()s
            sim = Simulator(seed=9)
            server, clients = self.build(sim, 1)
            seen = []

            def record(payload, ip, port, seen=seen, serve=server.sock.handler):
                seen.append(payload.data.xid)
                serve(payload, ip, port)

            server.sock.handler = record
            runs.append((sim, clients[0], seen))
        for sim, client, _seen in runs:
            assert sim.run_coro(client.acquire()) is not None
        assert runs[0][2] and runs[0][2] == runs[1][2]

    def test_client_ignores_non_dhcp_datagram(self):
        """Junk reaching UDP 68 while the client waits for its offer is
        dropped, not dereferenced, and the exchange still ends in a
        lease."""
        sim = Simulator()
        server, clients = self.build(sim, 1)
        client = clients[0]
        iface = server.iface

        def send_junk():
            for data in ("junk", None):
                datagram = UdpDatagram(5000, DHCP_CLIENT_PORT, Payload(10, data=data))
                packet = IPv4Packet(iface.ip, BCAST_IP, 17, datagram)
                iface.send_frame(frame_for(packet, iface.mac, client.iface.mac))

        proc = sim.process(client.acquire())
        sim.call_at(0.0, send_junk)  # after the DISCOVER, before the OFFER
        sim.run(until=proc)
        assert proc.value is not None and client.iface.ip == proc.value.ip
        assert server.offers_made == 1 and server.acks_sent == 1

    def test_no_server_times_out(self):
        sim = Simulator()
        lan = make_lan(sim, 1, subnet="192.168.5.0/24", name="lonely")
        host = lan.hosts[0]
        iface = host.stack.interfaces[0]
        iface.deconfigure()
        host.stack.routes.clear()
        client = DhcpClient(host.stack, iface, timeout=0.5, retries=2)
        p = sim.process(client.acquire())
        sim.run(until=p)
        assert p.value is None

    def test_leased_address_is_usable(self):
        sim = Simulator()
        server, clients = self.build(sim, 1)
        p = sim.process(clients[0].acquire())
        sim.run(until=p)
        ping = sim.process(Pinger(clients[0].stack, IPv4Address("192.168.5.10"),
                                  interval=0.3).run(2))
        sim.run(until=ping)
        assert ping.value.lost == 0


class TestDhcpOverWavnet:
    def test_vm_gets_lease_from_server_across_the_wan(self):
        """A DHCP server behind one NAT leases an address to a VM plugged
        into a bridge behind a different NAT — pure L2 transparency of
        the WAVNet tunnel."""
        sim = Simulator(seed=44)
        env = WavnetEnvironment(sim, default_latency=0.030)
        env.add_host("serverside")
        env.add_host("clientside")
        env.up().connect("serverside", "clientside")

        # DHCP server on serverside's wav0 (its virtual interface).
        srv_host = env.hosts["serverside"].host
        server = DhcpServer(srv_host.stack, srv_host.stack.interface("wav0"),
                            IPv4Network("10.99.0.0/16"), first_host=5000)

        # An unconfigured VM on clientside's bridge.
        vmm = Hypervisor(env.hosts["clientside"].host,
                         env.hosts["clientside"].driver.attach_port)
        vm = vmm.create_vm("fresh", memory_mb=16)
        client = DhcpClient(vm.guest.stack, vm.vif, timeout=3.0)
        p = sim.process(client.acquire())
        sim.run(until=p)
        lease = p.value
        assert lease is not None, "DHCP exchange failed across the tunnel"
        assert lease.ip in IPv4Network("10.99.0.0/16")
        assert server.acks_sent >= 1

        # The leased address works end-to-end: ping the DHCP server.
        ping = sim.process(Pinger(vm.guest.stack,
                                  env.hosts["serverside"].virtual_ip,
                                  interval=0.5, timeout=3.0).run(2))
        sim.run(until=ping)
        assert ping.value.lost == 0

"""Tests for STUN endpoint discovery and NAT classification."""

import pytest

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.l2 import Link
from repro.net.packet import Payload, UdpDatagram, ipv4
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.scenarios.builder import make_natted_site, named_mac_factory
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator
from repro.stun.client import StunClient, StunProbeResult
from repro.stun.messages import STUN_ALT_PORT, STUN_PORT, StunRequest, StunResponse
from repro.stun.server import StunServerPair


def build(sim, nat_type=None):
    """Cloud + STUN server pair + one probing host (NATed or public)."""
    cloud = WanCloud(sim, default_latency=0.010)
    stun = StunServerPair(sim, cloud)
    if nat_type is None:
        host = Host(sim, "pub", named_mac_factory("pub"))
        iface = host.add_nic().configure("8.0.0.50", "8.0.0.0/24")
        host.stack.connected_route_for(iface)
        host.stack.add_route("0.0.0.0/0", iface)
        Link(sim, iface.port, cloud.attach("pub"), latency=0.001, bandwidth_bps=1e9)
        site = None
    else:
        site = make_natted_site(sim, cloud, "site", "8.0.0.1", nat_type=nat_type)
        host = site.hosts[0]
    return cloud, stun, host, site


def wired_client(host, port, server_ip="9.9.9.1", **kw):
    """A standalone client: it reads its socket as the socket's handler."""
    sock = host.udp.bind(port)
    client = StunClient(host.stack, sock, server_ip, **kw)
    sock.handler = client.on_datagram
    return sock, client


def classify(nat_type):
    sim = Simulator(seed=4)
    _cloud, stun, host, _site = build(sim, nat_type)
    _sock, client = wired_client(host, 7100, timeout=0.5)
    proc = sim.process(client.classify())
    sim.run(until=30)
    return proc.value


class TestClassification:
    def test_open_host(self):
        result = classify(None)
        assert result.nat_type is NatType.OPEN
        assert str(result.mapped_ip) == "8.0.0.50"
        assert result.mapped_port == 7100

    def test_full_cone(self):
        assert classify("full-cone").nat_type is NatType.FULL_CONE

    def test_restricted_cone(self):
        assert classify("restricted-cone").nat_type is NatType.RESTRICTED_CONE

    def test_port_restricted(self):
        assert classify("port-restricted").nat_type is NatType.PORT_RESTRICTED

    def test_symmetric(self):
        assert classify("symmetric").nat_type is NatType.SYMMETRIC

    def test_mapped_endpoint_is_public(self):
        result = classify("port-restricted")
        assert str(result.mapped_ip) == "8.0.0.1"
        assert result.mapped_port != 7100  # translated


class TestEndpointDiscovery:
    def test_discover_endpoint_matches_nat_table(self):
        sim = Simulator()
        _cloud, stun, host, site = build(sim, "port-restricted")
        _sock, client = wired_client(host, 7200)
        proc = sim.process(client.discover_endpoint())
        sim.run(until=10)
        ip, port = proc.value
        assert ip == site.public_ip
        assert port in {m.external_port for m in site.nat.udp_mappings._by_external.values()}

    def test_blocked_server_returns_none(self):
        sim = Simulator()
        _cloud, stun, host, _site = build(sim, "port-restricted")
        _sock, client = wired_client(host, 7200, "9.9.8.77", timeout=0.3)  # no such server
        proc = sim.process(client.discover_endpoint())
        sim.run(until=10)
        assert proc.value is None

    def test_blocked_classification_flags_blocked(self):
        sim = Simulator()
        _cloud, stun, host, _site = build(sim, "port-restricted")
        _sock, client = wired_client(host, 7200, "9.9.8.77", timeout=0.3)
        proc = sim.process(client.classify())
        sim.run(until=10)
        assert proc.value.blocked
        with pytest.raises(RuntimeError):
            proc.value.public_endpoint

    def test_probe_then_reuse_socket_for_data(self):
        """The mapping discovered via STUN belongs to the probing socket,
        so data sent from that socket appears from the same endpoint."""
        sim = Simulator()
        cloud, stun, host, site = build(sim, "full-cone")
        _sock, client = wired_client(host, 7300)
        proc = sim.process(client.discover_endpoint())
        sim.run(until=10)
        _ip, port = proc.value
        ep = site.nat.external_endpoint_for(host.stack.ips[0], 7300,
                                            IPv4Address("9.9.9.1"), 3478)
        assert ep[1] == port

    def test_server_counts_requests(self):
        sim = Simulator()
        _cloud, stun, host, _site = build(sim, "full-cone")
        _sock, client = wired_client(host, 7400)
        proc = sim.process(client.classify())
        sim.run(until=30)
        assert stun.requests_served >= 2


def record_txids(sock) -> list:
    """Every STUN transaction id ``sock`` sends from now on, in order."""
    sent = []
    real = sock.sendto

    def sendto(dst_ip, dst_port, payload):
        if isinstance(payload.data, StunRequest):
            sent.append(payload.data.txid)
        return real(dst_ip, dst_port, payload)

    sock.sendto = sendto
    return sent


class TestTransactionIds:
    def test_same_seed_sends_same_txids(self):
        """What goes on the wire depends on the seed alone — not on where
        the client object happens to sit in memory."""
        runs = []
        for _ in range(2):  # both clients alive at once: distinct id()s
            sim = Simulator(seed=4)
            _cloud, _stun, host, _site = build(sim, "symmetric")
            sock, client = wired_client(host, 7100)
            runs.append((sim, client, record_txids(sock)))
        for sim, client, _sent in runs:
            sim.process(client.classify())
            sim.run(until=30)
        assert len(runs[0][2]) >= 4
        assert runs[0][2] == runs[1][2]

    def test_restored_driver_reuses_no_txid(self):
        """The client a restored driver makes must not match a stale
        reply to its predecessor."""
        sim = Simulator(seed=4)
        env = WavnetEnvironment(sim)
        driver = env.add_host("h0").driver
        first = record_txids(driver.sock)
        env.up()
        driver.crash()
        driver.restore()
        second = record_txids(driver.sock)  # the socket restore() just bound
        sim.run(until=sim.now + 30)
        assert first and second
        assert not set(first) & set(second)


def inject_strays(host, port, client):
    """Hand ``host``'s UDP ``port`` — past any NAT — a reply to the
    transaction before the one ``client`` is waiting on, carrying a
    bogus mapping, and a payload that is not STUN at all."""
    assert client._waiter is not None, "no test in flight"
    server = IPv4Address("9.9.9.1")
    stale = StunResponse(client._txid - 1, IPv4Address("6.6.6.6"), 1,
                         server, STUN_PORT, IPv4Address("9.9.9.2"), STUN_ALT_PORT)
    for data in (stale, "junk"):
        datagram = UdpDatagram(STUN_PORT, port, Payload(stale.size, data=data))
        host.stack.deliver_local(ipv4(server, host.stack.ips[0], datagram))


class TestStrayDatagrams:
    """Strays arriving while test I is in flight are dropped, so the
    probe ends exactly where a clean one does — whether the client reads
    its own socket or the WAVNet driver's demultiplexer hands it every
    STUN response."""

    @staticmethod
    def probe(mode, strays):
        sim = Simulator(seed=4)
        if mode == "standalone":
            _cloud, _stun, host, _site = build(sim, "port-restricted")
            sock, client = wired_client(host, 7100, timeout=0.5)
            if strays:
                sim.call_at(0.005, lambda: inject_strays(host, sock.port, client))
            proc = sim.process(client.classify())
            sim.run(until=30)
            return proc.value
        env = WavnetEnvironment(sim)
        wav = env.add_host("h0")
        driver = wav.driver
        if strays:
            sim.call_at(0.005, lambda: inject_strays(
                wav.host, driver.sock.port, driver._stun_client))
        env.up()
        return StunProbeResult(driver.nat_type, *driver.public_endpoint,
                               alloc_stride=driver.alloc_stride)

    @pytest.mark.parametrize("mode", ["standalone", "driver"])
    def test_stale_reply_and_junk_leave_the_probe_alone(self, mode):
        clean = self.probe(mode, strays=False)
        assert clean.nat_type is NatType.PORT_RESTRICTED and clean.mapped_port != 1
        assert self.probe(mode, strays=True) == clean

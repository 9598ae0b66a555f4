"""End-to-end tests of the WAVNet core: punching through NATs via the
rendezvous layer, L2 tunneling, keepalive, and the virtual LAN."""

import pytest

from repro.core.connection import ConnectionState
from repro.core.options import ConnectOptions
from repro.net.icmp import Pinger
from repro.net.tcp import drain_bytes, stream_bytes
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


def build_env(n_hosts=2, nat_types=None, **host_kwargs):
    sim = Simulator(seed=11)
    env = WavnetEnvironment(sim)
    nat_types = nat_types or ["port-restricted"] * n_hosts
    for i in range(n_hosts):
        env.add_host(f"h{i}", nat_type=nat_types[i], **host_kwargs)
    started = sim.process(env.start_all())
    sim.run(until=started)
    return sim, env


class TestConnectionSetup:
    def test_drivers_start_and_register(self):
        sim, env = build_env(2)
        rvz = env.rendezvous[0]
        assert set(rvz.host_names()) == {"h0", "h1"}
        for wav_host in env.hosts.values():
            assert wav_host.driver.nat_type is not None
            assert wav_host.driver.public_endpoint is not None

    def test_connect_pair_establishes_both_ends(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        assert conn.usable
        peer = env.hosts["h1"].driver.connections["h0"]
        assert peer.usable

    def test_connect_through_all_cone_nat_combinations(self):
        for nat_a in ("full-cone", "restricted-cone", "port-restricted"):
            for nat_b in ("full-cone", "port-restricted"):
                sim, env = build_env(2, nat_types=[nat_a, nat_b])
                p = sim.process(env.connect_pair("h0", "h1"))
                sim.run(until=p)
                assert p.value.usable, f"{nat_a} <-> {nat_b} failed"

    def test_public_host_connects_too(self):
        sim = Simulator(seed=12)
        env = WavnetEnvironment(sim)
        env.add_host("pub", public=True)
        env.add_host("nat", nat_type="port-restricted")
        started = sim.process(env.start_all())
        sim.run(until=started)
        p = sim.process(env.connect_pair("pub", "nat"))
        sim.run(until=p)
        assert p.value.usable

    def test_symmetric_pair_cannot_punch_without_relay(self):
        sim, env = build_env(2, nat_types=["symmetric", "symmetric"],
                             punch_timeout=3.0)
        driver = env.hosts["h0"].driver

        def attempt(sim):
            records = yield from driver.query_resources(limit=8)
            target = next(r for r in records if r.host_name == "h1")
            try:
                yield from driver.connect(
                    target, options=ConnectOptions(allow_relay=False))
                return "connected"
            except TimeoutError:
                return "failed"

        p = sim.process(attempt(sim))
        sim.run(until=p)
        assert p.value == "failed"

    def test_symmetric_pair_falls_back_to_relay(self):
        """Extension beyond the paper: when punching is impossible, the
        tunnel relays through the rendezvous server."""
        from repro.net.icmp import Pinger

        sim, env = build_env(2, nat_types=["symmetric", "symmetric"],
                             punch_timeout=3.0)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        assert conn.usable and conn.relayed
        ping = sim.process(Pinger(env.hosts["h0"].host.stack,
                                  env.hosts["h1"].virtual_ip,
                                  interval=0.5, timeout=3.0).run(3))
        sim.run(until=ping)
        assert ping.value.lost == 0
        assert env.rendezvous[0].frames_relayed > 0
        # Relayed path costs an extra hop through the rendezvous server.
        direct_rtt = 2 * 0.025
        assert ping.value.min_rtt() > 1.5 * direct_rtt

    def test_relayed_connection_upgrades_when_a_punch_lands(self):
        """The relay is a stopgap (Ford et al.): a pair that fell back to
        it while punches could not cross moves onto the direct path at
        the next upgrade round after they can."""
        from repro.core.driver.client import UPGRADE_INTERVAL

        sim, env = build_env(2, punch_timeout=3.0)
        env.cloud.partition(["h0"], ["h1"])
        conn = env.connect("h0", "h1")
        assert conn.usable and conn.relayed
        env.cloud.heal()
        sim.run(until=sim.now + UPGRADE_INTERVAL + 5.0)
        assert conn.usable and not conn.relayed
        assert conn.remote == env.hosts["h1"].driver.public_endpoint
        back = env.hosts["h1"].driver.connections["h0"]
        assert not back.relayed and back.remote == env.hosts["h0"].driver.public_endpoint
        upgraded = sim.trace.events("upgraded")
        assert sorted(e["attrs"]["host"] for e in upgraded) == ["h0", "h1"]
        relay = env.rendezvous[0]
        relayed_before = relay.frames_relayed
        ping = sim.process(Pinger(env.hosts["h0"].host.stack,
                                  env.hosts["h1"].virtual_ip,
                                  interval=0.5, timeout=3.0).run(3))
        sim.run(until=ping)
        assert ping.value.lost == 0
        assert relay.frames_relayed == relayed_before

    def test_connection_setup_time_is_a_few_rtts(self):
        sim, env = build_env(2)
        t0 = sim.now

        def timed(sim):
            yield sim.process(env.connect_pair("h0", "h1"))
            return sim.now - t0

        p = sim.process(timed(sim))
        sim.run(until=p)
        # Query + broker + punch over a 25 ms-latency cloud: well under 2 s.
        assert p.value < 2.0

    def test_reconnect_returns_existing_connection(self):
        sim, env = build_env(2)
        p1 = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p1)
        p2 = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p2)
        assert p2.value is p1.value


class TestVirtualLan:
    def test_ping_over_virtual_ips(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        h0 = env.hosts["h0"]
        h1 = env.hosts["h1"]
        pinger = Pinger(h0.host.stack, h1.virtual_ip, interval=0.5)
        proc = sim.process(pinger.run(4))
        sim.run(until=proc)
        result = proc.value
        assert result.lost == 0
        # Virtual RTT ≈ physical RTT (~51 ms path) + small tap overhead.
        physical = 2 * (0.025 + 2 * 0.0005 + 2 * 0.0001)
        for rtt in result.rtts[1:]:
            assert rtt == pytest.approx(physical, rel=0.25)

    def test_tcp_over_virtual_lan(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        h0, h1 = env.hosts["h0"], env.hosts["h1"]
        listener = h1.host.tcp.listen(5001)
        result = {}

        def server(sim):
            conn = yield listener.accept()
            result["got"] = yield from drain_bytes(conn)

        def client(sim):
            conn = h0.host.tcp.connect(h1.virtual_ip, 5001)
            yield conn.wait_established()
            yield from stream_bytes(conn, 500_000)
            conn.close()

        sim.process(server(sim))
        sim.process(client(sim))
        sim.run(until=sim.now + 120)
        assert result.get("got") == 500_000

    def test_broadcast_reaches_all_peers(self):
        sim, env = build_env(3)
        mesh = sim.process(env.connect_full_mesh())
        sim.run(until=mesh)
        # ARP for h2's vip from h0 must traverse the broadcast path.
        h0, h2 = env.hosts["h0"], env.hosts["h2"]
        proc = sim.process(Pinger(h0.host.stack, h2.virtual_ip).run(1))
        sim.run(until=proc)
        assert proc.value.lost == 0

    def test_wav_switch_learns_macs(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        h0, h1 = env.hosts["h0"], env.hosts["h1"]
        proc = sim.process(Pinger(h0.host.stack, h1.virtual_ip).run(2))
        sim.run(until=proc)
        sw = h0.driver.switch
        assert h1.driver.wav_iface.mac in sw.mac_table
        assert sw.frames_unicast > 0


class TestKeepalive:
    def test_pulses_flow_on_idle_connection(self):
        sim, env = build_env(2, udp_timeout=30.0)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        sim.run(until=sim.now + 60)
        assert conn.usable
        assert conn.pulses_received >= 8  # ~1 per 5 s for 60 s

    def test_connection_survives_nat_timeout_via_pulses(self):
        sim, env = build_env(2, udp_timeout=12.0)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        sim.run(until=sim.now + 90)  # many NAT timeout periods
        h0, h1 = env.hosts["h0"], env.hosts["h1"]
        proc = sim.process(Pinger(h0.host.stack, h1.virtual_ip, interval=0.3).run(3))
        sim.run(until=proc)
        assert proc.value.lost == 0

    def test_dead_peer_detected(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        # h1 goes silent (driver stops: no pulses, no acks).
        env.hosts["h1"].driver.stop()
        sim.run(until=sim.now + 60)
        assert conn.state is ConnectionState.DEAD
        # Repair supervision may be mid-punch toward the dead peer, but
        # no usable tunnel may exist while h1 stays down.
        refreshed = env.hosts["h0"].driver.connections.get("h1")
        assert refreshed is None or not refreshed.usable

    def test_keepalive_traffic_is_tiny(self):
        """The 2-byte pulse: measure keepalive bandwidth on an idle link."""
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        start_bytes = conn.bytes_sent
        t0 = sim.now
        sim.run(until=t0 + 100)
        rate = (conn.bytes_sent - start_bytes) / 100.0
        assert rate < 10  # bytes/sec of WAVNet payload on the wire

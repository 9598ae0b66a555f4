"""Resilience tests: peer death and reconnection, host re-registration,
rendezvous unavailability, and connection re-establishment — the
"resources may join and leave" dynamics of §II."""


from repro.apps.ping import Pinger
from repro.core.connection import ConnectionState
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


def build(n=3, seed=66, **kwargs):
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim)
    for i in range(n):
        env.add_host(f"h{i}", **kwargs)
    env.up()
    return sim, env


class TestReconnect:
    def test_reconnect_after_peer_silence(self):
        """A dead connection is detected, torn down, and a fresh connect
        succeeds once the peer is back."""
        sim, env = build(2)
        env.connect("h0", "h1")
        conn1 = env.hosts["h0"].driver.connections["h1"]
        # h1's driver crashes: its processes stop and the socket closes.
        h1 = env.hosts["h1"].driver
        h1.stop()
        sim.run(until=sim.now + 90)
        assert conn1.state is ConnectionState.DEAD
        # h1 comes back: restore() rebinds the socket and re-registers.
        h1.restore()
        sim.run(until=h1.started)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        assert p.value.usable

    def test_connections_are_independent(self):
        """h1 dying must not disturb the h0<->h2 tunnel."""
        sim, env = build(3)
        env.connect()
        env.hosts["h1"].driver.stop()
        sim.run(until=sim.now + 90)
        ping = sim.process(Pinger(env.hosts["h0"].host.stack,
                                  env.hosts["h2"].virtual_ip,
                                  interval=0.3).run(3))
        sim.run(until=ping)
        assert ping.value.lost == 0

    def test_switch_forgets_dead_peer_macs(self):
        sim, env = build(2)
        env.connect("h0", "h1")
        ping = sim.process(Pinger(env.hosts["h0"].host.stack,
                                  env.hosts["h1"].virtual_ip).run(2))
        sim.run(until=ping)
        sw = env.hosts["h0"].driver.switch
        assert sw.mac_table  # learned h1's wav0
        env.hosts["h1"].driver.stop()
        sim.run(until=sim.now + 90)
        assert not sw.mac_table


class TestTeardown:
    def test_stopped_mesh_leaves_nothing_behind_and_restores(self):
        """Stop every driver and rendezvous server of a mesh: no timer,
        process or bound socket of theirs survives, so a run with no
        horizon returns. A restored server and driver then find each
        other again through freshly bound handler sockets."""
        sim = Simulator(seed=5)
        env = WavnetEnvironment(sim, n_rendezvous=2)
        for i in range(3):
            env.add_host(f"h{i}")
        env.up().connect()
        components = [h.driver for h in env.hosts.values()] + env.rendezvous
        for component in components:
            component.stop()
        sim.run()  # no horizon: returns only if the calendar drains
        assert sim.peek() == float("inf")
        assert not any(c.running for c in components)
        assert not any(s.can.running for s in env.rendezvous)
        for stack in ([h.host.stack for h in env.hosts.values()]
                      + [s.host.stack for s in env.rendezvous]):
            assert not stack.udp.sockets

        rvz, driver = env.rendezvous[0], env.hosts["h0"].driver
        rvz.restore()
        driver.restore()
        sim.run(until=driver.started)  # the registered reply was received
        assert rvz.registered("h0") >= 0
        assert driver.sock.handler is not None


class TestRegistrationLifecycle:
    def test_host_expires_without_keepalive(self):
        sim, env = build(1, keepalive_interval=10_000)
        rvz = env.rendezvous[0]
        assert rvz.registered("h0") >= 0
        sim.run(until=sim.now + rvz.host_ttl + 10)
        assert rvz.expire_hosts() == ["h0"]
        assert rvz.registered("h0") < 0

    def test_host_stays_registered_with_keepalive(self):
        sim, env = build(1, keepalive_interval=15.0)
        rvz = env.rendezvous[0]
        sim.run(until=sim.now + rvz.host_ttl + 30)
        assert rvz.expire_hosts() == []
        assert rvz.registered("h0") >= 0

    def test_record_refresh_keeps_resources_discoverable(self):
        sim, env = build(2, keepalive_interval=15.0)
        sim.run(until=sim.now + 300)  # >> record TTL (120s)
        driver = env.hosts["h0"].driver

        def query(sim):
            return (yield from driver.query_resources(limit=8))

        p = sim.process(query(sim))
        sim.run(until=p)
        assert any(r.host_name == "h1" for r in p.value)

    def test_stale_record_vanishes_after_host_stops(self):
        sim, env = build(2, keepalive_interval=15.0)
        env.hosts["h1"].driver.stop()
        if env.hosts["h1"].driver._keepalive_proc is not None:
            pass  # stop() already interrupted it
        sim.run(until=sim.now + 300)
        driver = env.hosts["h0"].driver

        def query(sim):
            return (yield from driver.query_resources(limit=8))

        p = sim.process(query(sim))
        sim.run(until=p)
        assert all(r.host_name != "h1" for r in p.value)

    def test_stopped_host_leaves_answers_at_ttl_with_no_expiry_loop(self):
        """Liveness is read from the table when the answer is built: a
        stopped host drops out once its ``last_seen`` is a TTL old,
        although nothing swept its row or its directory handle."""
        sim, env = build(2, keepalive_interval=15.0)
        rvz = env.rendezvous[0]
        env.hosts["h1"].driver.stop()
        driver = env.hosts["h0"].driver

        def names():
            return {r.host_name
                    for r in sim.run_coro(driver.query_resources(limit=8))}

        sim.run(until=sim.now + rvz.can.record_ttl / 2)
        assert "h1" in names()  # silent, but still inside the TTL
        sim.run(until=sim.now + rvz.can.record_ttl)
        assert "h1" not in names()
        assert rvz.registered("h1") >= 0  # row still registered ...
        handle = env.table.handle(env.table.lookup("h1"))
        assert handle in rvz.can.handles  # ... and its handle still stored

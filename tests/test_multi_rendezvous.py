"""Multi-rendezvous deployments: hosts registered at different
rendezvous servers, CAN-routed resource queries, and cross-rendezvous
connection brokering (Fig 3's full step 1-4 path where A != B)."""

import pytest

from repro.apps.ping import Pinger
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


def build(n_rendezvous=3, hosts_per_rvz=2, seed=55):
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, default_latency=0.015,
                            n_rendezvous=n_rendezvous)
    for r in range(n_rendezvous):
        for i in range(hosts_per_rvz):
            env.add_host(f"h{r}{i}", rendezvous_index=r,
                         attrs={"cpu_ghz": 1.0 + r, "mem_mb": 1024.0 * (i + 1)})
    env.up()
    return sim, env


class TestCanOfRendezvous:
    def test_overlay_forms(self):
        sim, env = build()
        total = sum(z.volume() for r in env.rendezvous for z in r.can.zones)
        assert total == pytest.approx(1.0)
        assert all(r.can.joined for r in env.rendezvous)

    def test_registrations_split_across_servers(self):
        sim, env = build()
        counts = [len(r.host_names()) for r in env.rendezvous]
        assert counts == [2, 2, 2]

    def test_resource_query_crosses_the_overlay(self):
        """A host registered at rendezvous 0 finds hosts whose records
        live in zones owned by other rendezvous nodes."""
        sim, env = build()
        driver = env.hosts["h00"].driver

        def query(sim):
            records = yield from driver.query_resources(limit=16,
                                                        cpu_ghz=3.0,
                                                        mem_mb=2048.0)
            return records

        p = sim.process(query(sim))
        sim.run(until=p)
        names = {r.host_name for r in p.value}
        assert names, "query returned nothing"
        # Hosts of other rendezvous servers are discoverable.
        assert any(not n.startswith("h0") for n in names), names


class TestCrossRendezvousConnect:
    def test_connect_via_two_rendezvous_servers(self):
        sim, env = build()
        p = sim.process(env.connect_pair("h00", "h21"))
        sim.run(until=p)
        conn = p.value
        assert conn.usable
        # Both brokering servers participated.
        assert env.rendezvous[0].connects_brokered >= 1

    def test_data_flows_after_cross_broker(self):
        sim, env = build()
        env.connect("h00", "h21")
        ping = sim.process(Pinger(env.hosts["h00"].host.stack,
                                  env.hosts["h21"].virtual_ip,
                                  interval=0.3).run(3))
        sim.run(until=ping)
        assert ping.value.lost == 0

    def test_same_rendezvous_connect_short_circuits(self):
        sim, env = build()
        p = sim.process(env.connect_pair("h10", "h11"))
        sim.run(until=p)
        assert p.value.usable

    def test_keepalive_refreshes_records_via_any_server(self):
        sim, env = build()
        sim.run(until=sim.now + 200)  # several keepalive rounds
        # Records should still be discoverable (TTL refreshed via puts).
        driver = env.hosts["h20"].driver

        def query(sim):
            records = yield from driver.query_resources(limit=32,
                                                        cpu_ghz=1.0,
                                                        mem_mb=1024.0)
            return records

        p = sim.process(query(sim))
        sim.run(until=p)
        assert p.value

"""Tests for the failure plane: component lifecycle, the fault injector
and plans, and the self-healing behaviors they exist to exercise —
connection repair, rendezvous failover, NAT-reboot recovery, and CAN
ungraceful takeover."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.net.l2 import Link, Port
from repro.net.wan import WanCloud
from repro.core.hoststate import SPEC, Registration
from repro.scenarios.churn import (
    build_churn_env,
    mesh_converged,
    scripted_churn_plan,
)
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Component, LifecycleState, Simulator


class _Probe(Component):
    """Minimal component recording which hooks fired."""

    def __init__(self, sim, name="probe"):
        Component.__init__(self, sim, "probe", name)
        self.calls = []

    def _on_stop(self):
        self.calls.append("stop")

    def _on_crash(self):
        self.calls.append("crash")

    def _on_restore(self):
        self.calls.append("restore")


def _frame():
    from repro.net.addresses import IPv4Address, MacAddress
    from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
    pkt = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
               UdpDatagram(1, 2, Payload(100)))
    return EthernetFrame(MacAddress(1), MacAddress(2), 0x0800, pkt)


class _PortOwner:
    def __init__(self, sim):
        self.sim = sim
        self.frames = 0
        self.port = Port(self, "p")

    def on_frame(self, frame, port):
        self.frames += 1


class TestLifecycle:
    def test_transitions_and_idempotence(self):
        sim = Simulator()
        c = _Probe(sim)
        assert c.running
        c.stop()
        c.stop()  # idempotent
        assert c.lifecycle is LifecycleState.STOPPED
        c.crash()  # stopped -> crashed still loses state
        c.crash()
        assert c.lifecycle is LifecycleState.CRASHED
        c.restore()
        c.restore()
        assert c.running
        assert c.calls == ["stop", "crash", "restore"]

    def test_registry_addressing_and_find(self):
        sim = Simulator()
        a, b = _Probe(sim, "a"), _Probe(sim, "b")
        assert sim.components[a.component_id] is a
        assert a.component_id == "probe:a"
        b.crash()
        crashed = sim.components.find("probe", LifecycleState.CRASHED)
        assert list(crashed.values()) == [b]
        assert len(sim.components.find("probe")) == 2

    def test_duplicate_names_get_suffix(self):
        sim = Simulator()
        a, b = _Probe(sim, "x"), _Probe(sim, "x")
        assert a.component_id == "probe:x"
        assert b.component_id == "probe:x#2"

    def test_transitions_are_observable(self):
        sim = Simulator()
        c = _Probe(sim)
        c.crash()
        c.restore()
        assert sim.metrics.value("faults.lifecycle.crash") == 1
        assert sim.metrics.value("faults.lifecycle.restore") == 1
        events = [e for e in sim.trace.events()
                  if e["name"].startswith("lifecycle.")]
        assert [e["name"] for e in events] == ["lifecycle.crash",
                                               "lifecycle.restore"]
        assert all(e["attrs"]["component"] == c.component_id for e in events)


class TestFaultInjector:
    def test_component_verbs_and_observability(self):
        sim = Simulator()
        c = _Probe(sim)
        inj = FaultInjector(sim)
        inj.crash(c.component_id)
        assert c.lifecycle is LifecycleState.CRASHED
        inj.restore(c.component_id)
        assert c.running
        assert inj.injected == 2
        assert sim.metrics.value("faults.injected.crash") == 1
        assert sim.metrics.value("faults.injected.restore") == 1
        assert len(sim.trace.find("fault")) == 2

    def test_link_flap_recovers(self):
        sim = Simulator()
        a, b = _PortOwner(sim), _PortOwner(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        inj = FaultInjector(sim)
        inj.link_flap(link, down_for=5.0)
        assert not link.running
        a.port.transmit(_frame())
        sim.run(until=10.0)
        assert link.running
        assert b.frames == 0  # the frame offered while down was dropped
        a.port.transmit(_frame())
        sim.run(until=11.0)
        assert b.frames == 1

    def test_loss_burst_restores_prior_loss(self):
        sim = Simulator(seed=1)
        a, b = _PortOwner(sim), _PortOwner(sim)
        link = Link(sim, a.port, b.port, latency=0.0, bandwidth_bps=None,
                    loss=0.1)
        inj = FaultInjector(sim)
        inj.loss_burst(link, loss=0.9, duration=3.0)
        assert link.ab.loss == 0.9
        sim.run(until=5.0)
        assert link.ab.loss == 0.1

    def test_partition_heals_after_duration(self):
        sim = Simulator()
        cloud = WanCloud(sim)
        inj = FaultInjector(sim)
        inj.partition(cloud, ["east"], ["west"], duration=4.0)
        assert cloud.partitioned("east", "west")
        sim.run(until=5.0)
        assert not cloud.partitioned("east", "west")


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        sim = Simulator()
        plan = FaultPlan(sim)
        with pytest.raises(ValueError):
            plan.at(1.0, "meteor_strike")

    def test_arm_is_final(self):
        sim = Simulator()
        c = _Probe(sim)
        plan = FaultPlan(sim).at(1.0, "crash", component_id=c.component_id)
        plan.arm()
        with pytest.raises(RuntimeError):
            plan.at(2.0, "restore", component_id=c.component_id)
        with pytest.raises(RuntimeError):
            plan.arm()

    def test_armed_plan_fires_at_scheduled_times(self):
        sim = Simulator()
        c = _Probe(sim)
        FaultPlan(sim).at(2.0, "crash", component_id=c.component_id) \
                      .at(5.0, "restore", component_id=c.component_id).arm()
        sim.run(until=1.0)
        assert c.running
        sim.run(until=3.0)
        assert c.lifecycle is LifecycleState.CRASHED
        sim.run(until=6.0)
        assert c.running

    @staticmethod
    def _delivered_by(sim, src, dst, sample_at):
        """Send one frame at every whole second up to the last sample;
        return how many ``dst`` holds at each ``sample_at`` instant."""
        for t in range(int(max(sample_at)) + 1):
            sim.call_at(float(t), lambda: src.port.transmit(_frame()))
        counts = []
        for t in sample_at:
            sim.run(until=t)
            counts.append(dst.frames)
        return counts

    def test_link_down_then_up_stops_and_resumes_delivery(self):
        sim = Simulator()
        a, b = _PortOwner(sim), _PortOwner(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        FaultPlan(sim).at(2.5, "link_down", link=link) \
                      .at(5.5, "link_up", link=link).arm()
        # Sent at 0-2 arrive; 3-5 meet a down link; 6-8 arrive again.
        assert self._delivered_by(sim, a, b, [2.9, 5.9, 8.9]) == [3, 3, 6]
        assert sim.metrics.value("faults.injected.link_up") == 1

    def test_partition_then_heal_stops_and_resumes_delivery(self):
        sim = Simulator()
        cloud = WanCloud(sim, default_latency=0.001)
        east, west = _PortOwner(sim), _PortOwner(sim)
        for owner, site in ((east, "east"), (west, "west")):
            Link(sim, owner.port, cloud.attach(site), latency=0.0, bandwidth_bps=None)
        FaultPlan(sim).at(2.5, "partition", cloud=cloud, group_a=["east"],
                          group_b=["west"]) \
                      .at(5.5, "heal", cloud=cloud).arm()
        assert self._delivered_by(sim, east, west, [2.9, 5.9, 8.9]) == [3, 3, 6]
        assert cloud.frames_partitioned == 3
        assert sim.metrics.value("faults.injected.heal") == 1

    def test_stop_then_restore_a_link(self):
        """``stop`` is the graceful verb: a stopped link carries nothing
        until restored."""
        sim = Simulator()
        a, b = _PortOwner(sim), _PortOwner(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        FaultPlan(sim).at(2.5, "stop", component_id=link.component_id) \
                      .at(5.5, "restore", component_id=link.component_id).arm()
        assert self._delivered_by(sim, a, b, [2.9, 5.9, 8.9]) == [3, 3, 6]
        assert [e["attrs"]["kind"] for e in sim.trace.events("fault")] == ["stop", "restore"]

    def test_random_churn_is_deterministic(self):
        def events_for(seed):
            sim = Simulator(seed=seed)
            ids = [_Probe(sim, f"c{i}").component_id for i in range(3)]
            plan = FaultPlan(sim, name="churn")
            plan.random_churn(ids, start=0.0, stop=300.0, rate=0.05)
            return [(e.at, e.kind, e.kwargs["component_id"])
                    for e in plan.events]

        assert events_for(9) == events_for(9)
        assert len(events_for(9)) > 0
        assert events_for(9) != events_for(10)

    def test_random_churn_pairs_crash_with_restore(self):
        sim = Simulator(seed=5)
        ids = [_Probe(sim, f"c{i}").component_id for i in range(2)]
        plan = FaultPlan(sim, name="pairs")
        plan.random_churn(ids, start=0.0, stop=200.0, rate=0.1)
        crashes = [e for e in plan.events if e.kind == "crash"]
        restores = [e for e in plan.events if e.kind == "restore"]
        assert len(crashes) == len(restores) > 0
        plan.arm()
        sim.run(until=250.0)
        # Every component churned back to RUNNING by the horizon.
        assert all(sim.components[cid].running for cid in ids)


class TestSelfHealing:
    """End-to-end recovery: faults injected mid-run, nobody calls
    connect() again, the control plane heals itself."""

    def test_rendezvous_kill_fails_over_and_reconnects(self):
        """Acceptance: kill a rendezvous server mid-run. Every surviving
        host must re-register with the surviving server and every
        host-pair tunnel must come back on its own."""
        sim = Simulator(seed=21)
        env = build_churn_env(sim, n_hosts=3, n_rendezvous=2)
        rvz0 = env.rendezvous[0]
        FaultPlan(sim, name="kill-rvz").at(
            sim.now + 20.0, "crash", component_id=rvz0.component_id).arm()
        sim.run(until=sim.now + 120.0)
        assert not rvz0.running
        survivor = env.rendezvous[1]
        for name, wav in env.hosts.items():
            assert wav.driver.rendezvous_ip == survivor.ip
            assert survivor.registered(name) >= 0
        assert mesh_converged(env)
        # At least the hosts homed on rvz0 actually failed over.
        failovers = sum(
            int(sim.metrics.value(f"{n}.driver.rvz.failovers"))
            for n in env.hosts)
        assert failovers >= 2

    def test_host_crash_and_restore_heals_peers(self):
        sim = Simulator(seed=22)
        env = build_churn_env(sim, n_hosts=3, n_rendezvous=1)
        victim = env.hosts["h2"].driver
        FaultPlan(sim, name="host-churn") \
            .at(sim.now + 10.0, "crash", component_id=victim.component_id) \
            .at(sim.now + 30.0, "restore", component_id=victim.component_id) \
            .arm()
        sim.run(until=sim.now + 120.0)
        assert victim.running
        assert mesh_converged(env)
        repairs = sum(
            int(sim.metrics.value(f"{n}.driver.repair.success"))
            for n in env.hosts)
        assert repairs >= 2  # h0 and h1 each repaired their h2 tunnel
        assert len(sim.trace.find("conn.repaired")) == repairs

    def test_nat_reboot_moves_endpoint_and_heals(self):
        """A NAT power-cycle flushes every mapping: the host's public
        endpoint moves, so repair must re-STUN and re-register before
        punching succeeds again."""
        sim = Simulator(seed=23)
        env = build_churn_env(sim, n_hosts=2, n_rendezvous=1)
        site = env.hosts["h0"].site
        assert site is not None
        FaultPlan(sim, name="nat").at(
            sim.now + 10.0, "nat_reboot", nat=site.nat).arm()
        sim.run(until=sim.now + 120.0)
        assert mesh_converged(env)
        moves = sum(
            int(sim.metrics.value(f"{n}.driver.repair.endpoint_moves"))
            for n in env.hosts)
        assert moves >= 1

    def test_scripted_churn_scenario_converges(self):
        """The full canonical schedule (rendezvous kill + restore, host
        crash + restore, NAT reboot, link flap) ends converged."""
        sim = Simulator(seed=24)
        env = build_churn_env(sim)
        plan = scripted_churn_plan(sim, env).arm()
        assert len(plan) == 6
        sim.run(until=sim.now + 220.0)
        assert mesh_converged(env)
        assert all(s.running for s in env.rendezvous)

    def test_stopped_driver_does_not_self_repair(self):
        """Repair supervision dies with the driver: a stopped driver
        must not keep punching from beyond the grave."""
        sim = Simulator(seed=25)
        env = build_churn_env(sim, n_hosts=2, n_rendezvous=1)
        h1 = env.hosts["h1"].driver
        h1.stop()
        sim.run(until=sim.now + 60.0)
        assert not h1.running
        assert h1.connections == {}
        assert int(sim.metrics.value("h1.driver.repair.attempts")) == 0


class TestRendezvousRestore:
    def test_restored_server_rejoins_and_serves(self):
        """A crashed rendezvous server comes back empty, rejoins the CAN
        through cached peers, and keepalive re-registration repopulates
        its host registry."""
        sim = Simulator(seed=26)
        env = build_churn_env(sim, n_hosts=2, n_rendezvous=2,
                              keepalive_interval=5.0)
        rvz1 = env.rendezvous[1]
        FaultPlan(sim, name="rvz-restart") \
            .at(sim.now + 10.0, "crash", component_id=rvz1.component_id) \
            .at(sim.now + 40.0, "restore", component_id=rvz1.component_id) \
            .arm()
        sim.run(until=sim.now + 120.0)
        assert rvz1.running
        assert rvz1.can.joined
        assert mesh_converged(env)


class TestCanTakeover:
    def test_ungraceful_death_triggers_takeover(self):
        """Crash one rendezvous CAN node: its neighbors probe, declare
        it dead, and the arbitration winner absorbs its zones and
        promotes its replicated directory handles."""
        sim = Simulator(seed=27)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        p = sim.process(env.join_rendezvous_overlay())
        sim.run(until=p)
        sim.run(until=sim.now + 15.0)  # replicas propagate on puts
        wav = env.add_host("h0", rendezvous_index=1)
        start = sim.process(wav.driver.start())
        sim.run(until=start)
        sim.run(until=sim.now + 5.0)
        # Find the CAN node owning h0's directory handle, then kill it.
        h0 = env.table.handle(env.table.lookup("h0"))
        owner = next(s.can for s in env.rendezvous if h0 in s.can.handles)
        survivors = [s.can for s in env.rendezvous if s.can is not owner]
        assert any(h0 in c.handle_replicas.get(owner.node_id, ())
                   for c in survivors)
        owner.crash()
        # Detection: 3 missed announce intervals + probe timeout.
        sim.run(until=sim.now + 4 * owner.ping_interval + 10.0)
        assert all(owner.node_id not in c.neighbors for c in survivors)
        # The entry survived the death via replica promotion.
        assert any(h0 in c.handles for c in survivors)
        takeovers = sum(
            int(sim.metrics.value(f"{c.node_id}.can.takeovers"))
            for c in survivors)
        assert takeovers == 1
        # The dead node's zone space is fully re-owned.
        total = sum(z.volume() for c in survivors for z in c.zones)
        assert total == pytest.approx(1.0)

    def test_reregistration_after_crash_invalidates_old_handle_everywhere(self):
        """A host that crashes and comes back re-registers: the row's
        generation bumps, so the handle of its previous incarnation is
        dead in the owner's store and in every replica, and queries
        answer with the new incarnation exactly once."""
        sim = Simulator(seed=28)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        sim.run_coro(env.join_rendezvous_overlay())
        sim.run(until=sim.now + 15.0)
        wav = env.add_host("h0", rendezvous_index=1)
        probe = env.add_host("h1", rendezvous_index=2)
        sim.run_coro(env.start_all())
        cans = [s.can for s in env.rendezvous]
        row = env.table.lookup("h0")
        old = env.table.handle(row)

        def stores_holding(handle):
            return sum(handle in c.handles for c in cans) + sum(
                handle in reps for c in cans
                for reps in c.handle_replicas.values())

        sim.run(until=sim.now + 1.0)  # replica notifications land
        assert stores_holding(old) >= 2  # the owner and a replica

        wav.driver.crash()
        wav.driver.restore()
        sim.run(until=sim.now + 5.0)
        new = env.table.handle(row)
        assert new != old
        assert not env.table.valid_mask(np.array([old])).any()
        answers = sim.run_coro(probe.driver.query_resources(limit=8))
        assert [r.host_name for r in answers].count("h0") == 1
        # The next maintenance sweep drops the stale handle from every
        # store; the fresh one is what the directory holds.
        sim.run(until=sim.now + 2 * cans[0].ping_interval)
        assert stores_holding(old) == 0
        assert stores_holding(new) >= 2

    def test_failover_is_refused_until_the_directory_can_store_the_host(self):
        """The rendezvous server that also owns the hosts' CAN point
        crashes. Until its neighbors detect the death, every route to
        that point ends at the dead node: a failover registration
        elsewhere cannot be stored and must fail — not answer
        "registered" for a host no query can find — so the driver keeps
        trying, and the attempt after the takeover sticks."""
        sim = Simulator(seed=29)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        sim.run_coro(env.join_rendezvous_overlay())
        sim.run(until=sim.now + 15.0)
        # One host per server; default hosts share one CAN point.
        hosts = [env.add_host(f"h{i}", rendezvous_index=i) for i in range(3)]
        sim.run_coro(env.start_all())
        point = SPEC.to_point(**hosts[0].driver.attrs)
        x = next(i for i, s in enumerate(env.rendezvous) if s.can.owns(point))
        wav, probe = hosts[x], hosts[(x + 1) % 3]
        dead = env.rendezvous[x]
        survivors = [s.can for s in env.rendezvous if s is not dead]

        def visible():
            return {r.host_name for r in
                    sim.run_coro(probe.driver.query_resources(limit=8))}

        assert wav.driver.name in visible()
        dead.crash()
        # Inside the detection window the dead node is still the listed
        # owner of the point, whichever survivor is asked. (A patient
        # caller: the driver's own 5 s timeout fires before the answer.)
        other = env.rendezvous[(x + 1) % 3]

        def register_elsewhere():
            reply = yield from wav.driver.rpc.call(
                other.ip, other.port, "rvz.register",
                Registration.of(wav.driver.name, wav.driver.connection_info(),
                                wav.driver.attrs),
                timeout=20.0, retries=1)
            return reply

        # The row is written, but no directory node stored its handle:
        # the driver takes ``stored == 0`` as "directory owner
        # unreachable" and tries its next candidate.
        assert sim.run_coro(register_elsewhere()) == ("registered", 0)
        assert all(dead.can.node_id in c.neighbors for c in survivors)
        # The keepalive loop fails over for real once a survivor owns
        # the point; the other hosts' entries come back by replica
        # promotion.
        sim.run(until=sim.now + 150.0)
        assert wav.driver.rendezvous_ip != dead.ip
        assert wav.driver.name in visible()
        handle = env.table.handle(env.table.lookup(wav.driver.name))
        assert any(handle in c.handles for c in survivors)

"""Run-twice determinism golden tests.

The kernel fast path (bare-callable scheduling, cancelable lazy timers,
the unshaped-link bypass) all touch event ordering, so these tests pin
the strongest property the kernel promises: the same seed reproduces a
run *exactly* — event counts, metric values, and the trace event log
are identical between two back-to-back runs of the same build.
"""

import json

from repro.apps.netperf import netperf_stream, netserver
from repro.net.addresses import mac_factory
from repro.net.l2 import Link, Port
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, Payload
from repro.scenarios.churn import build_churn_env, scripted_churn_plan
from repro.scenarios.emulated import build_emulated_wan
from repro.sim import Simulator


def _run_mesh_once():
    """Fig-8's smallest rung, scaled to test time: a 3-host emulated WAN
    full mesh with keepalives running and one netperf stream measured."""
    sim = Simulator(seed=53)
    env, hosts = build_emulated_wan(sim, 3, wan_bandwidth_bps=100e6,
                                    tcp_mss=8192, udp_timeout=30.0)
    started = sim.process(env.start_all())
    sim.run(until=started)
    mesh = sim.process(env.connect_full_mesh())
    sim.run(until=mesh)
    sim.run(until=sim.now + 10.0)  # several keepalive pulse periods
    source, peer = hosts[0], hosts[1]
    sim.process(netserver(peer.host))
    p = sim.process(netperf_stream(source.host, peer.virtual_ip, duration=2.0))
    sim.run(until=p)
    return {
        "events": sim.events_dispatched,
        "now": sim.now,
        "throughput": p.value.throughput_mbps,
        "metrics": json.dumps(sim.metrics.snapshot(), sort_keys=True,
                              default=str),
        "trace": sim.trace.to_jsonl(),
    }


def test_fig08_scenario_run_twice_identical():
    r1 = _run_mesh_once()
    r2 = _run_mesh_once()
    assert r1["events"] == r2["events"]
    assert r1["now"] == r2["now"]
    assert r1["throughput"] == r2["throughput"]
    assert r1["metrics"] == r2["metrics"]
    assert r1["trace"] == r2["trace"]
    # Sanity: the run actually did something worth pinning.
    assert r1["events"] > 1000
    assert r1["throughput"] > 0


class _Count:
    def __init__(self):
        self.frames = 0

    def on_frame(self, frame, port):
        self.frames += 1


def _run_lossy_once():
    sim = Simulator(seed=11)
    mint = mac_factory()
    sink = _Count()
    a = Port(_Count(), name="a")
    b = Port(sink, name="b")
    link = Link(sim, a, b, latency=0.001, bandwidth_bps=10e6, loss=0.2,
                name="lossy")
    frame = EthernetFrame(mint(), mint(), ETHERTYPE_IPV4,
                          Payload(512, data=None))

    def blaster(sim):
        for _ in range(500):
            a.transmit(frame)
            yield sim.timeout(0.0005)

    sim.process(blaster(sim))
    sim.run()
    return (sink.frames, link.ab.frames_lost, sim.events_dispatched, sim.now)


def test_lossy_link_run_twice_identical():
    r1 = _run_lossy_once()
    r2 = _run_lossy_once()
    assert r1 == r2
    delivered, lost, _events, _now = r1
    # Loss draws come from the link's named RNG stream, so both runs
    # drop the same frames; nothing is double-counted or leaked.
    assert lost > 0 and delivered > 0
    assert delivered + lost == 500


def _run_fault_schedule_once():
    """The scripted churn scenario end to end: rendezvous kill + restore,
    driver crash + restore, NAT reboot, link flap — with repair backoff
    jitter and failover re-registration all in play."""
    sim = Simulator(seed=77)
    env = build_churn_env(sim, n_hosts=3, n_rendezvous=2)
    plan = scripted_churn_plan(sim, env).arm()
    sim.run(until=sim.now + 220.0)
    return {
        "faults": len(plan),
        "events": sim.events_dispatched,
        "now": sim.now,
        "metrics": json.dumps(sim.metrics.snapshot(), sort_keys=True,
                              default=str),
        "trace": sim.trace.to_jsonl(),
    }


def test_fault_schedule_run_twice_identical():
    """Fault injections and the recovery machinery they trigger (repair
    backoff jitter, failover, re-STUN) must be exactly reproducible:
    identical event counts, metric snapshots, and trace logs."""
    r1 = _run_fault_schedule_once()
    r2 = _run_fault_schedule_once()
    assert r1["faults"] == r2["faults"] == 6
    assert r1["events"] == r2["events"]
    assert r1["now"] == r2["now"]
    assert r1["metrics"] == r2["metrics"]
    assert r1["trace"] == r2["trace"]
    # Sanity: the schedule actually exercised the failure plane.
    metrics = json.loads(r1["metrics"])
    assert metrics["faults.injected.crash"]["value"] >= 2
    assert any(k.endswith("driver.repair.success") for k in metrics)
    assert "conn.repaired" in r1["trace"]


def _run_hybrid_fluid_once():
    """Mixed fluid+packet traffic under a fault schedule: a fluid bulk
    flow and a packet ttcp transfer share one access link (hybrid
    utilization subtraction in play) while a link flap and a WAN
    partition stall/resume the fluid flows mid-run."""
    from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
    from repro.faults.injector import FaultInjector
    from repro.scenarios.fluid import _find_link, fluidify
    from repro.scenarios.stacks import physical_pair

    pair = physical_pair(0.010, 100e6, seed=29)
    sim = pair.sim
    net = fluidify(pair, refresh_interval=0.1)
    inject = FaultInjector(sim)
    sim.process(ttcp_receiver(pair.host_b))

    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=24 * 1024 * 1024)
    sim.call_in(0.2, lambda: sim.process(
        ttcp_transfer(pair.host_a, pair.ip_b, 4 * 1024 * 1024)))
    sim.call_in(0.5, lambda: inject.link_flap(
        _find_link(sim, "pb.access"), down_for=0.3))
    sim.call_in(1.4, lambda: inject.partition(
        pair.cloud, ["pa"], ["pb"], duration=0.2))
    sim.run(until=flow.done)
    return {
        "events": sim.events_dispatched,
        "now": sim.now,
        "delivered": flow.delivered,
        "metrics": json.dumps(sim.metrics.snapshot(), sort_keys=True,
                              default=str),
        "trace": sim.trace.to_jsonl(),
    }


def test_hybrid_fluid_packet_run_twice_identical():
    """The fluid plane must not break run-twice determinism: solver
    passes, hybrid utilization sampling, stall/resume timers, and
    completion events all replay exactly."""
    r1 = _run_hybrid_fluid_once()
    r2 = _run_hybrid_fluid_once()
    assert r1["events"] == r2["events"]
    assert r1["now"] == r2["now"]
    assert r1["delivered"] == r2["delivered"]
    assert r1["metrics"] == r2["metrics"]
    assert r1["trace"] == r2["trace"]
    # Sanity: both planes and both faults actually fired.
    metrics = json.loads(r1["metrics"])
    assert metrics["fluid.flows.completed"]["value"] == 1
    assert metrics["fluid.flows.stalls"]["value"] >= 2
    assert metrics["faults.injected.link_flap"]["value"] == 1
    assert metrics["faults.injected.partition"]["value"] == 1
    assert "fluid.stall" in r1["trace"] and "fluid.resume" in r1["trace"]


def _run_mixed_cc_bottleneck_once():
    """Three flows with *different* congestion-control strategies (reno,
    cubic, bbr) racing one shared 1 Mbps / 200 ms bottleneck — the
    pluggable-cc dispatch, the BBR pacing timers, and the per-flow
    cwnd/ssthresh trace series all in one run."""
    from repro.scenarios.fairness import fairness_bottleneck

    sim, payload = fairness_bottleneck(seed=19, stack="wavnet",
                                       cc="reno,cubic,bbr", duration=12.0)
    return {
        "events": sim.events_dispatched,
        "now": sim.now,
        "payload": json.dumps(payload, sort_keys=True, default=str),
        "metrics": json.dumps(sim.metrics.snapshot(), sort_keys=True,
                              default=str),
        "trace": sim.trace.to_jsonl(),
    }


def test_mixed_cc_bottleneck_run_twice_identical():
    """Heterogeneous congestion control must not perturb determinism:
    strategy objects keep all their state per-connection, so two runs
    replay exactly — including the paced-send timer ordering BBR adds."""
    r1 = _run_mixed_cc_bottleneck_once()
    r2 = _run_mixed_cc_bottleneck_once()
    assert r1["events"] == r2["events"]
    assert r1["now"] == r2["now"]
    assert r1["payload"] == r2["payload"]
    assert r1["metrics"] == r2["metrics"]
    assert r1["trace"] == r2["trace"]
    # Sanity: all three algorithms ran and moved real traffic.
    payload = json.loads(r1["payload"])
    assert payload["cc"] == ["reno", "cubic", "bbr"]
    assert all(rate > 0 for rate in payload["per_flow_mbps"])


def _run_migration_repair_once():
    """NAT reboot healed by QUIC-style path migration: endpoint
    re-discovery, the challenge/response retry loop (direct + relayed
    legs), and the rebind bookkeeping all touch event ordering."""
    from repro.scenarios.traversal import migration_repair

    sim, payload = migration_repair(seed=31, migration=True)
    return {
        "events": sim.events_dispatched,
        "now": sim.now,
        "payload": json.dumps(payload, sort_keys=True, default=str),
        "metrics": json.dumps(sim.metrics.snapshot(), sort_keys=True,
                              default=str),
        "trace": sim.trace.to_jsonl(),
    }


def test_migration_under_nat_reboot_run_twice_identical():
    r1 = _run_migration_repair_once()
    r2 = _run_migration_repair_once()
    assert r1["events"] == r2["events"]
    assert r1["now"] == r2["now"]
    assert r1["payload"] == r2["payload"]
    assert r1["metrics"] == r2["metrics"]
    assert r1["trace"] == r2["trace"]
    # Sanity: the run really healed via migration, not a re-punch.
    payload = json.loads(r1["payload"])
    assert payload["healed_by_migration"] is True
    assert payload["repunches"] == 0

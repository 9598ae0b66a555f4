"""Fluid data plane integration: apps, faults, hybrid sharing.

`tests/test_fluid_solver.py` checks the waterfill math on synthetic
graphs; this file checks the plane end-to-end over the real stack
topologies — app fluid modes agree with the packet plane, fault verbs
stall/resume/abort flows through the watcher hooks, and packet traffic
steals capacity from fluid flows on shared links. The last section
checks the completion cohorts against a per-flow-timer oracle.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.ab import ApacheBench
from repro.apps.httpd import HttpServer
from repro.apps.netperf import netperf_stream, netserver
from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.core.options import TransferOptions
from repro.faults.injector import FaultInjector
from repro.net.fluid import FluidAborted, FluidLink, FluidNetwork, FluidPath
from repro.scenarios.fluid import _find_link, fluidify
from repro.scenarios.stacks import physical_pair, wavnet_pair
from repro.sim.engine import Simulator

MB = 1024 * 1024


# ----------------------------------------------------------------------
# App fluid modes vs the packet plane
# ----------------------------------------------------------------------

def _run_ttcp(pair, nbytes, fidelity):
    if fidelity == "fluid":
        fluidify(pair)
    else:
        pair.sim.process(ttcp_receiver(pair.host_b))
    proc = pair.sim.process(ttcp_transfer(pair.host_a, pair.ip_b, nbytes,
                                          options=TransferOptions(
                                              fidelity=fidelity)))
    pair.sim.run(until=proc)
    return proc.value, pair.sim.events_dispatched


def test_ttcp_fluid_matches_packet_physical():
    res_p, ev_p = _run_ttcp(physical_pair(0.010, 100e6, seed=1), 8 * MB, "packet")
    res_f, ev_f = _run_ttcp(physical_pair(0.010, 100e6, seed=1), 8 * MB, "fluid")
    assert res_f.elapsed == pytest.approx(res_p.elapsed, rel=0.10)
    # The point of the fluid plane: orders of magnitude fewer events.
    assert ev_f * 100 < ev_p


def test_netperf_fluid_matches_packet_wavnet():
    # Tuned buffers (~BDP + half the bottleneck queue) keep the packet
    # plane in its clean steady state — see DESIGN.md §12 on when the
    # fluid model applies.
    results = {}
    for fidelity in ("packet", "fluid"):
        pair = wavnet_pair(0.010, 50e6, seed=2,
                           send_buf=150000, recv_buf=150000)
        if fidelity == "fluid":
            fluidify(pair)
        else:
            pair.sim.process(netserver(pair.host_b))
        proc = pair.sim.process(netperf_stream(
            pair.host_a, pair.ip_b, duration=2.0,
            options=TransferOptions(fidelity=fidelity)))
        pair.sim.run(until=proc)
        results[fidelity] = proc.value.throughput_mbps
    assert results["fluid"] == pytest.approx(results["packet"], rel=0.10)


def test_ab_fluid_matches_packet_wavnet():
    rps = {}
    for fidelity in ("packet", "fluid"):
        pair = wavnet_pair(0.050, 20e6, seed=2)
        if fidelity == "fluid":
            net = fluidify(pair)
        else:
            HttpServer(pair.host_b)
        ab = ApacheBench(pair.host_a, pair.ip_b, path="/file8k",
                         concurrency=4,
                         options=TransferOptions(fidelity=fidelity))
        proc = pair.sim.process(ab.run_requests(24))
        pair.sim.run(until=proc)
        report = proc.value
        assert report.requests_completed == 24  # ab -n: exactly n issued
        assert report.requests_failed == 0
        rps[fidelity] = report.requests_per_second
        if fidelity == "fluid":
            # Each request's connect is one path RTT on the fluid model.
            rtt = net.route(pair.host_a.name, pair.ip_b).rtt
            mean_connect = sum(report.connect_times) / len(report.connect_times)
            assert mean_connect == pytest.approx(rtt, rel=0.01)
    assert rps["fluid"] == pytest.approx(rps["packet"], rel=0.25)


def test_ttcp_over_the_tunnel_one_api():
    """A bulk transfer through the WAVNet tunnel runs either fidelity
    behind one call."""
    elapsed = {}
    for fidelity in ("packet", "fluid"):
        pair = wavnet_pair(0.020, 50e6, seed=2)
        if fidelity == "fluid":
            fluidify(pair)
        else:
            pair.sim.process(ttcp_receiver(pair.host_b))
        proc = pair.sim.process(
            ttcp_transfer(pair.host_a, pair.ip_b, MB,
                          options=TransferOptions(fidelity=fidelity)))
        pair.sim.run(until=proc)
        elapsed[fidelity] = proc.value.elapsed
    assert elapsed["fluid"] == pytest.approx(elapsed["packet"], rel=0.15)


# ----------------------------------------------------------------------
# Faults: stall / resume / abort through the injector verbs
# ----------------------------------------------------------------------

def test_link_flap_stalls_and_resumes():
    pair = physical_pair(0.010, 100e6, seed=1)
    sim = pair.sim
    net = fluidify(pair)
    inject = FaultInjector(sim)
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=8 * MB)
    sim.call_in(0.2, lambda: inject.link_flap(_find_link(sim, "pa.access"),
                                              down_for=0.4))
    sim.run(until=flow.done)
    # ~0.7 s of transfer + 0.4 s of outage.
    assert sim.now > 1.0
    assert flow.state == "done"
    assert pair.metrics.value("fluid.flows.stalls") == 1
    assert pair.trace.find(name="fluid.stall")
    assert pair.trace.find(name="fluid.resume")
    # Stalled time must not be billed as delivery.
    assert flow.delivered == 8 * MB


def test_partition_stalls_and_heal_resumes():
    pair = wavnet_pair(0.010, 100e6, seed=2)
    sim = pair.sim
    net = fluidify(pair)
    inject = FaultInjector(sim)
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=8 * MB)
    sim.call_in(0.2, lambda: inject.partition(pair.cloud, ["wa"], ["wb"],
                                              duration=0.5))
    sim.run(until=flow.done)
    assert sim.now > 1.0
    assert flow.state == "done"
    stall = pair.trace.find(name="fluid.stall")[0]
    assert stall["attrs"]["reason"] == "partitioned"


def test_conduit_down_stalls_wavnet_flow():
    pair = wavnet_pair(0.010, 100e6, seed=2)
    sim = pair.sim
    net = fluidify(pair)
    key = net.conduit_key("wa", "wb")
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=8 * MB)
    sim.call_in(0.2, lambda: net.set_conduit(key, False))
    sim.call_in(0.7, lambda: net.set_conduit(key, True))
    sim.run(until=flow.done)
    assert sim.now > 1.0 and flow.state == "done"
    stall = pair.trace.find(name="fluid.stall")[0]
    assert stall["attrs"]["reason"] == "tunnel_down:wa-wb"


def test_stall_timeout_aborts_flow():
    pair = physical_pair(0.010, 100e6, seed=1)
    sim = pair.sim
    net = fluidify(pair, stall_timeout=0.5)
    inject = FaultInjector(sim)
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=8 * MB)
    sim.call_in(0.2, lambda: inject.link_down(_find_link(sim, "pa.access")))
    with pytest.raises(FluidAborted):
        sim.run(until=flow.done)
    assert flow.state == "aborted"
    assert sim.now == pytest.approx(0.7, abs=0.01)
    assert pair.metrics.value("fluid.flows.aborted") == 1
    assert 0 < flow.delivered < 8 * MB


def test_loss_burst_engages_mathis_cap():
    pair = physical_pair(0.010, 100e6, seed=1)
    sim = pair.sim
    net = fluidify(pair)
    inject = FaultInjector(sim)
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=None)
    rates = {}
    link = _find_link(sim, "pa.access")

    def burst():
        rates["before"] = flow.rate
        inject.loss_burst(link, 0.02, duration=0.5)

    sim.call_in(0.3, burst)
    sim.call_in(0.6, lambda: rates.__setitem__("during", flow.rate))
    sim.call_in(1.2, lambda: rates.__setitem__("after", flow.rate))
    sim.run(until=1.3)
    # The flow's path crosses the forward direction of the link only, so
    # the Mathis cap sees the burst's 2% loss directly (ACK-path loss is
    # not modelled, matching the solver's per-direction loss accounting).
    path = net.route(pair.host_a.name, pair.ip_b)
    expect = 1460 * 8 * 1.22 / (path.rtt * math.sqrt(0.02))
    assert rates["during"] == pytest.approx(expect, rel=0.01)
    assert rates["during"] < rates["before"] / 2
    assert rates["after"] == pytest.approx(rates["before"], rel=0.01)
    flow.close()


# ----------------------------------------------------------------------
# Hybrid capacity sharing
# ----------------------------------------------------------------------

def test_packet_traffic_steals_fluid_capacity():
    """A packet-mode transfer on the shared access link must squeeze a
    concurrent fluid flow (measured-utilization subtraction), and the
    fluid flow must recover once the packet flow drains."""
    pair = physical_pair(0.010, 100e6, seed=1)
    sim = pair.sim
    net = fluidify(pair, refresh_interval=0.1)
    sim.process(ttcp_receiver(pair.host_b))
    flow = net.open(pair.host_a.name, pair.ip_b, size_bytes=None)
    samples = {}
    sim.call_in(0.5, lambda: samples.__setitem__("alone", flow.rate))
    sim.call_in(0.6, lambda: sim.process(
        ttcp_transfer(pair.host_a, pair.ip_b, 8 * MB)))
    sim.call_in(1.2, lambda: samples.__setitem__("contended", flow.rate))
    sim.run(until=3.5)
    samples["recovered"] = flow.rate
    assert samples["alone"] > 90e6
    assert samples["contended"] < 0.5 * samples["alone"]
    assert samples["recovered"] > 0.8 * samples["alone"]
    flow.close()


# ----------------------------------------------------------------------
# Completion cohorts vs per-flow timers
# ----------------------------------------------------------------------

class PerFlowTimerNetwork(FluidNetwork):
    """The scheduler the completion cohorts replaced, kept as their
    oracle: one cancelable timer per armed ETA (its marker is the ETA
    itself) and one calendar entry per last-byte delivery, so flows
    finishing at one instant run in the kernel's seq order."""

    def __init__(self, sim, **kw):
        super().__init__(sim, **kw)
        self._timers = {}

    def _arm_eta(self, flow, eta):
        self._disarm_eta(flow)
        flow._done_eta = eta
        self._timers[flow] = self.sim.timer(eta - self.sim.now,
                                            lambda: self._timer_fire(flow))

    def _disarm_eta(self, flow):
        timer = self._timers.pop(flow, None)
        if timer is not None:
            timer.cancel()
        flow._done_eta = math.inf

    def _timer_fire(self, flow):
        del self._timers[flow]
        self._eta_fire(flow)

    def _deliver(self, flow):
        if flow.deliver_offset > 0:
            self.sim.call_in(flow.deliver_offset,
                             lambda: flow.done.succeed(flow))
        else:
            flow.done.succeed(flow)


def _drive(net_cls, caps, path_links, flow_specs, actions, stall_timeout):
    """Run one scripted mix to the end of the calendar; return the net,
    the event count and everything a flow's owner can observe."""
    sim = Simulator(seed=1)
    net = net_cls(sim, refresh_interval=0.0, stall_timeout=stall_timeout)
    links = [FluidLink(f"l{i}", capacity_bps=c) for i, c in enumerate(caps)]
    paths = [FluidPath(links=tuple((links[i], 1.04) for i in
                                   dict.fromkeys(j % len(links) for j in idxs)),
                       rtt=0.02 * (1 + n))
             for n, idxs in enumerate(path_links)]
    flows, done_log = {}, []

    def opener(k, path_i, size, ramp, offset):
        def go():
            flow = net.open(path=paths[path_i % len(paths)], size_bytes=size,
                            ramp=ramp, deliver_offset=offset, name=f"f{k}",
                            send_buf=1 << 18, recv_buf=1 << 18)
            flows[k] = flow
            flow.done.add_callback(
                lambda ev: done_log.append((flow.name, sim.now, ev.ok)))
        return go

    def flap(link):
        link.up = False
        net._on_link_change(link)

        def heal():
            link.up = True
            net._on_link_change(link)
        sim.call_in(0.1, heal)

    def set_loss(link):
        link.loss = 0.01 if link.loss == 0.0 else 0.0
        net._on_link_change(link)

    def act(kind, arg):
        def go():
            flow = flows.get(arg % len(flow_specs))
            if kind == "flap":
                flap(links[arg % len(links)])
            elif kind == "loss":
                set_loss(links[arg % len(links)])
            elif flow is not None and kind == "close":
                flow.close()
            elif flow is not None:
                flow.abort("scripted")
        return go

    for k, (t, *spec) in enumerate(flow_specs):
        sim.call_at(t, opener(k, *spec))
    for t, kind, arg in actions:
        sim.call_at(t, act(kind, arg))
    sim.run()
    outcome = {f.name: (f.state, f.delivered) for f in flows.values()}
    return net, sim.events_dispatched, (outcome, done_log, sim.now)


_flow_specs = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.1, 0.3]),          # open time
    st.integers(0, 2),                                          # path
    st.sampled_from([None, 4_000, 60_000, 60_000, 250_000]),   # bytes
    st.booleans(),                                              # ramp
    st.sampled_from([None, 0.0]),                               # deliver_offset
), min_size=1, max_size=12)
_actions = st.lists(st.tuples(
    st.sampled_from([0.02, 0.1, 0.2, 0.45, 0.9]),
    st.sampled_from(["close", "abort", "flap", "loss"]),
    st.integers(0, 11),
), max_size=5)


@given(caps=st.lists(st.sampled_from([2e6, 8e6, 20e6]), min_size=1, max_size=3),
       path_links=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                           min_size=1, max_size=3),
       flow_specs=_flow_specs, actions=_actions,
       stall_timeout=st.sampled_from([None, 0.15]))
@settings(max_examples=80, deadline=None)
# f0 and f1 share an ETA on separate paths; closing f2 re-arms f0 earlier,
# so the shared instant fires with f0 finished but still in its list.
@example(caps=[8e6, 8e6], path_links=[[0], [1]],
         flow_specs=[(0.0, 0, 60_000, False, None),
                     (0.0, 1, 60_000, False, None),
                     (0.0, 0, 250_000, False, None),
                     (0.0, 1, 250_000, False, None)],
         actions=[(0.02, "close", 2)], stall_timeout=None)
def test_cohorts_match_per_flow_timers(caps, path_links, flow_specs, actions,
                                       stall_timeout):
    """Same done instants, done order, delivered bytes, final states and
    end of run as one timer per flow, in no more calendar events."""
    args = (caps, path_links, flow_specs, actions, stall_timeout)
    net, events, seen = _drive(FluidNetwork, *args)
    _oracle, oracle_events, expected = _drive(PerFlowTimerNetwork, *args)
    assert seen == expected
    assert events <= oracle_events
    assert not net._etas and not net._deliveries


def test_identical_flows_share_completion_entries():
    """1,000 flows finishing together: one solve, one ETA cohort, one
    re-solve, one delivery cohort, and each flow's own ``done``."""
    sim = Simulator(seed=1)
    net = FluidNetwork(sim, refresh_interval=0.0)
    path = FluidPath(links=((FluidLink("l0", capacity_bps=100e6), 1.0),),
                     rtt=0.02)
    flows = [net.open(path=path, size_bytes=64 * 1024, ramp=False)
             for _ in range(1000)]
    sim.run()
    assert all(f.done.processed and f.state == "done" for f in flows)
    assert sim.events_dispatched <= len(flows) + 4


def test_flow_within_initial_window_leaves_no_timer():
    """A flow that fits in its initial window completes at open; its
    slow-start ramp timer must not outlive it (no timer left once
    everything is done)."""
    sim = Simulator(seed=1)
    net = FluidNetwork(sim)
    path = FluidPath(links=((FluidLink("l0", capacity_bps=100e6), 1.0),),
                     rtt=0.05)
    flow = net.open(path=path, size_bytes=1000, send_buf=1 << 20,
                    recv_buf=1 << 20)
    sim.run()
    assert flow.done.processed and flow.state == "done"
    assert sim.now == flow.deliver_offset == 0.025
    assert sim.peek() == math.inf
    assert sim.events_dispatched == 2   # the delivery cohort, then done

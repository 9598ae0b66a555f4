"""Fluid data plane integration: apps, faults, hybrid sharing.

`tests/test_fluid_solver.py` checks the waterfill math on synthetic
graphs; this file checks the plane end-to-end over the real stack
topologies — app fluid modes agree with the packet plane, fault verbs
stall/resume/abort flows through the watcher hooks, and packet traffic
steals capacity from fluid flows on shared links. The last section
checks the columnar plane against the object-per-flow plane it
replaced (``tests/fluid_oracle.py``) and against one timer per flow.
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
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.fluid import FluidAborted, FluidLink, FluidNetwork, FluidPath
from repro.net.l2 import Link, Port
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.net.wan import WanCloud
from repro.scenarios.fluid import _find_link, fluidify
from repro.scenarios.stacks import physical_pair, wavnet_pair
from repro.sim.engine import Simulator
from tests.fluid_oracle import FluidNetwork as OracleNetwork

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


def test_wavnet_fluid_rtt_is_what_a_frame_crosses():
    """The RTT ``fluidify`` registers for a wavnet pair is the built
    pair's own: each way, every link latency of both site chains and the
    cloud, plus each side's LAN switch and tap bridge forward delay."""
    pair = wavnet_pair(0.030, 20e6, seed=2)
    net = fluidify(pair)
    one_way = pair.cloud.latency("wa", "wb")
    for site in ("wa", "wb"):
        one_way += sum(_find_link(pair.sim, f"{site}.{hop}").ab.latency
                       for hop in ("h0-sw", "nat-sw", "access"))
        wav = pair.env.hosts[site]
        one_way += wav.site.lan.switch.forward_delay + wav.driver.bridge.forward_delay
    for src, dst in ((pair.host_a.name, pair.ip_b),
                     (pair.host_b.name, pair.env.hosts["wa"].virtual_ip)):
        assert net.route(src, dst).rtt == pytest.approx(2 * one_way, rel=1e-12)


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


def _flow_behind_cloud(refresh_interval=0.5):
    """One fluid flow whose path crosses a cloud between two sites."""
    sim = Simulator(seed=0)
    cloud = WanCloud(sim)
    net = FluidNetwork(sim, refresh_interval=refresh_interval)
    net.watch_cloud(cloud)
    path = FluidPath(links=((FluidLink("l0", capacity_bps=8e6), 1.0),), rtt=0.02,
                     sites=("a", "b"), cloud=cloud)
    flow = net.open(path=path, name="f", size_bytes=4 * MB)
    return sim, cloud, net, flow


def test_refresh_stops_while_every_flow_is_stalled():
    # A partition that never heals: the flow stalls, and with nothing
    # left that can move the refresh tick stops, so the calendar drains
    # and an unbounded run() returns (bounded here so a regression fails
    # instead of hanging: it made 202 solves by t = 100 s).
    sim, cloud, net, flow = _flow_behind_cloud()
    sim.call_at(0.2, lambda: cloud.partition(["a"], ["b"]))
    sim.run(until=100.0)
    assert flow.state == "stalled" and sim.peek() == math.inf
    assert sim.metrics.counter("fluid.solves").value <= 10


def test_refresh_resumes_when_a_partition_heals():
    sim, cloud, net, flow = _flow_behind_cloud()
    sim.call_at(0.2, lambda: cloud.partition(["a"], ["b"]))
    sim.call_at(30.0, cloud.heal)
    sim.run(until=flow.done)
    assert flow.state == "done" and flow.delivered == 4 * MB
    assert 30.0 < sim.now < 35.0
    # Ticks run before the partition and after the heal, none between.
    assert sim.metrics.counter("fluid.solves").value < 20


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


class _Sink:
    def __init__(self):
        self.port = Port(self, "sink")

    def on_frame(self, frame, port):
        pass


def test_late_bound_link_measures_packet_use_from_its_bind():
    """A fluid link bound after t = 0 (as every wavnet ``fluidify`` is)
    averages the packet bytes sent since the bind over the time since the
    bind: 1,250,000 B in the second after t = 5 s is 10 Mbit/s."""
    sim = Simulator(seed=1)
    tx = _Sink()
    link = Link(sim, tx.port, _Sink().port, latency=0.001, bandwidth_bps=100e6,
                queue_capacity=1024, name="l")
    net = FluidNetwork(sim)

    def frame_of(payload_bytes):
        return EthernetFrame(MacAddress(1), MacAddress(2), 0x0800, ipv4(
            IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
            UdpDatagram(1000, 2000, Payload(payload_bytes))))

    frame = frame_of(1350 - frame_of(100).size)
    assert frame.size == 1250
    bound = {}
    sim.call_at(5.0, lambda: bound.update(flink=net.link_for(link, "ab"),
                                          base=link.ab.bytes_sent))
    for k in range(100):   # packet traffic before the bind
        sim.call_at(1.0 + k * 0.009, lambda: tx.port.transmit(frame))
    for k in range(1000):
        sim.call_at(5.0 + k * 0.0009, lambda: tx.port.transmit(frame))
    sim.run(until=6.0)
    assert bound["base"] == 125_000
    assert link.ab.bytes_sent - bound["base"] == 1_250_000
    bound["flink"].sample_packet_util(6.0)
    assert bound["flink"].pkt_util_bps == pytest.approx(10e6)


# ----------------------------------------------------------------------
# The columnar plane vs the object-per-flow oracle and per-flow timers
# ----------------------------------------------------------------------

class PerFlowTimerNetwork(OracleNetwork):
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


def _drive(net_cls, caps, paths, flow_specs, actions, stall_timeout,
           refresh_interval=0.0):
    """Run one scripted mix to the end of the calendar (with a refresh
    interval, to t = 1 s); return the net, the event count and everything
    a flow's owner can observe.

    ``paths``: (link indices, factor, behind a cut-able site pair, behind
    a conduit). ``flow_specs``: (open time, path, bytes, ramp,
    deliver_offset, cc, waiter), the waiter attached at ``"open"``, after
    the run (``"late"``, by then resolved) or never. The oracles open one
    flow per calendar entry; the columnar plane opens each run of specs
    that share an instant and every option (an arrival cohort) in one
    ``open_many`` call. ``actions``: (time, verb, target, deferred) — a
    deferred action runs one calendar hop later in its instant, after a
    solve the same instant's opens asked for."""
    sim = Simulator(seed=1)
    net = net_cls(sim, refresh_interval=refresh_interval, stall_timeout=stall_timeout)
    cloud = WanCloud(sim, default_latency=0.01)
    net.watch_cloud(cloud)
    links = [FluidLink(f"l{i}", capacity_bps=c) for i, c in enumerate(caps)]
    fpaths = [FluidPath(links=tuple((links[i], factor) for i in
                                    dict.fromkeys(j % len(links) for j in idxs)),
                        rtt=0.02 * (1 + n),
                        sites=(f"s{n}", "hub") if cut else None,
                        cloud=cloud if cut else None,
                        conduits=((f"s{n}", "hub"),) if conduit else ())
              for n, (idxs, factor, cut, conduit) in enumerate(paths)]
    flows, done_log, instant_log, probes = {}, [], [], []
    solves = sim.metrics.counter("fluid.solves")

    def options(size, ramp, offset, cc):
        return dict(size_bytes=size, ramp=ramp, deliver_offset=offset,
                    send_buf=1 << 18, recv_buf=1 << 18, cc=cc)

    def opened(k, flow, offset, waiter):
        flows[k] = (flow, waiter)
        if waiter != "open":
            return
        if flow.state == "done" and offset == 0.0:
            # Resolved inside open(): a read in the instant of
            # resolution, whose waiter runs at once on the columnar
            # plane (test_done_read_in_the_instant_of_resolution_...).
            flow.done.add_callback(lambda ev: instant_log.append(
                (flow.name, sim.now, ev.ok)))
        else:
            flow.done.add_callback(lambda ev: done_log.append(
                (flow.name, sim.now, ev.ok, solves.value)))

    def opener(k, path_i, size, ramp, offset, cc, waiter):
        def go():
            opened(k, net.open(path=fpaths[path_i % len(fpaths)], name=f"f{k}",
                               **options(size, ramp, offset, cc)), offset, waiter)
        return go

    def cohort_opener(cohort):
        def go():
            _k, _path_i, *shared, _waiter = cohort[0]
            handles = net.open_many([fpaths[spec[1] % len(fpaths)] for spec in cohort],
                                    [f"f{spec[0]}" for spec in cohort], **options(*shared))
            for (k, *_, waiter), flow in zip(cohort, handles):
                opened(k, flow, shared[2], waiter)
        return go

    def flap(link, down_for):
        link.up = False
        net._on_link_change(link)

        def heal():
            link.up = True
            net._on_link_change(link)
        sim.call_in(down_for, heal)

    def set_loss(link):
        link.loss = 0.01 if link.loss == 0.0 else 0.0
        net._on_link_change(link)

    def act(kind, arg):
        def go():
            probes.append([(f.name, f.state, f.rate, f.progress())
                           for f, _ in flows.values()])
            flow, _ = flows.get(arg % len(flow_specs), (None, None))
            site = f"s{arg % len(fpaths)}"
            if kind == "flap":
                flap(links[arg % len(links)], 0.1)
            elif kind == "blink":   # down and back up inside one instant
                flap(links[arg % len(links)], 0.0)
            elif kind == "loss":
                set_loss(links[arg % len(links)])
            elif kind == "partition":
                cloud.partition([site], ["hub"])
            elif kind == "heal":
                cloud.heal([site], ["hub"])
            elif kind in ("tunnel_down", "tunnel_up"):
                net.set_conduit((site, "hub"), kind == "tunnel_up")
            elif flow is not None and kind == "close":
                flow.close()
            elif flow is not None:
                flow.abort("scripted")
        return go

    if net_cls is FluidNetwork:
        cohorts = {}   # open time -> runs of specs sharing every option
        for k, (t, *spec) in enumerate(flow_specs):
            runs = cohorts.setdefault(t, [])
            if runs and runs[-1][-1][2:6] == tuple(spec[1:5]):
                runs[-1].append((k, *spec))
            else:
                runs.append([(k, *spec)])
        for t, runs in cohorts.items():
            for cohort in runs:
                sim.call_at(t, cohort_opener(cohort))
    else:
        for k, (t, *spec) in enumerate(flow_specs):
            sim.call_at(t, opener(k, *spec))
    for t, kind, arg, deferred in actions:
        go = act(kind, arg)
        sim.call_at(t, (lambda go=go: sim.call_in(0.0, go)) if deferred else go)
    # A refresh tick recurs while any flow is open: stop at a horizon.
    sim.run(until=1.0 if refresh_interval else None)
    late_log = []
    for flow, waiter in flows.values():
        if waiter == "late":
            flow.done.add_callback(lambda ev, name=flow.name: late_log.append(
                (name, ev.ok, ev.ok and ev.value.name)))
    outcome = {f.name: (f.state, f.delivered, f.rate) for f, _ in flows.values()}
    metrics = {path: sim.metrics.value(path)
               for path in sim.metrics.select(["fluid"])}
    seen = (outcome, done_log, sorted(instant_log), late_log, probes, sim.now, metrics,
            sim.trace.export(["fluid"]))
    return net, sim.events_dispatched, seen


_paths = st.lists(st.tuples(
    st.lists(st.integers(0, 2), min_size=1, max_size=3),        # links
    st.sampled_from([1.04, 1.04, 1.0, 1.2]),                     # factor
    st.booleans(),                                               # site pair
    st.booleans(),                                               # conduit
), min_size=1, max_size=3)
_sizes = st.sampled_from([None, 4_000, 60_000, 60_000, 250_000])
_offsets = st.sampled_from([None, 0.0])
_ccs = st.sampled_from([None, None, "cubic", "bbr"])
_waiters = st.sampled_from(["open", "open", "late", "none"])
_flow_specs = st.lists(st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.1, 0.3]),          # open time
    st.integers(0, 2),                                          # path
    _sizes, st.booleans(), _offsets, _ccs,                      # bytes, ramp,
    _waiters,                                                   # offset, cc, waiter
), min_size=1, max_size=40)


@st.composite
def _cohort_specs(draw):
    """Flow specs whose (bytes, ramp, deliver_offset, cc) come from at most
    three draws, so arrival cohorts are long and mix paths; a cohort's
    flows all ramp, all fit their initial window or neither."""
    choices = draw(st.lists(st.tuples(_sizes, st.booleans(), _offsets, _ccs),
                            min_size=1, max_size=3))
    specs = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.1]),
                                    st.integers(0, 2), st.sampled_from(choices),
                                    _waiters), min_size=1, max_size=40))
    return [(t, path, *shared, waiter) for t, path, shared, waiter in specs]

_actions = st.lists(st.tuples(
    st.sampled_from([0.0, 0.02, 0.1, 0.2, 0.45, 0.9]),
    st.sampled_from(["close", "abort", "flap", "blink", "loss", "partition",
                     "heal", "tunnel_down", "tunnel_up"]),
    st.integers(0, 39),
    st.booleans(),                                              # deferred
), max_size=8)
_caps = st.lists(st.sampled_from([2e6, 8e6, 20e6]), min_size=1, max_size=3)

# f0 and f1 share an ETA on separate paths; closing f2 re-arms f0 earlier,
# so the shared instant fires with f0 finished but still in its list.
_SHARED_INSTANT = dict(
    caps=[8e6, 8e6], paths=[([0], 1.04, False, False), ([1], 1.04, False, False)],
    flow_specs=[(0.0, 0, 60_000, False, None, None, "open"),
                (0.0, 1, 60_000, False, None, None, "open"),
                (0.0, 0, 250_000, False, None, None, "open"),
                (0.0, 1, 250_000, False, None, None, "open")],
    actions=[(0.02, "close", 2, False)], stall_timeout=None)
# f0 and f1 share an ETA; f0's link blinks after that solve, in the same
# instant: f0 stalls (left lazily on the cohort), resumes at the same rate
# and rejoins the same instant, so the cohort lists it twice. Zero
# deliver offsets put each done right beside the cohort's re-solve.
_TWICE_LISTED = dict(
    caps=[8e6, 8e6, 8e6],
    paths=[([0], 1.04, False, False), ([1], 1.04, False, False),
           ([2], 1.04, False, False)],
    flow_specs=[(0.0, 0, 60_000, False, 0.0, None, "open"),
                (0.0, 1, 60_000, False, 0.0, None, "late"),
                (0.0, 2, 250_000, False, None, None, "none")],
    actions=[(0.0, "blink", 0, True)], stall_timeout=None)

# f0 and f2 fit their initial window and complete as they open, their
# last bytes landing at 0.02 s; f1, opened between them, puts its ramp
# step on that instant. f2's done must resolve after the ramp step's
# re-solve, where its own delivery entry sits, not in f0's cohort.
_RAMP_BETWEEN_DELIVERIES = dict(
    caps=[2e6], paths=[([0], 1.04, False, False)] * 2,
    flow_specs=[(0.0, 1, 4000, True, None, None, "open"),
                (0.0, 0, None, True, None, None, "open"),
                (0.0, 1, 4000, True, None, None, "open")],
    actions=[], stall_timeout=None)


@given(caps=_caps, paths=_paths, flow_specs=_flow_specs, actions=_actions,
       stall_timeout=st.sampled_from([None, 0.15]))
@settings(max_examples=200, deadline=None)
@example(**_SHARED_INSTANT)
@example(**_TWICE_LISTED)
@example(**_RAMP_BETWEEN_DELIVERIES)
def test_columns_match_object_oracle(caps, paths, flow_specs, actions,
                                     stall_timeout):
    """Bit for bit the object-per-flow plane's run: done order and
    instants, late waiters, every flow's state, bytes and rate (at every
    action and at the end), the clock, every ``fluid.*`` metric and
    trace record — in no more calendar events."""
    args = (caps, paths, flow_specs, actions, stall_timeout)
    net, events, seen = _drive(FluidNetwork, *args)
    _oracle, oracle_events, expected = _drive(OracleNetwork, *args)
    assert seen == expected
    assert events <= oracle_events
    assert not net._etas and not net._deliveries


@given(caps=_caps, paths=_paths, flow_specs=_cohort_specs(), actions=_actions,
       stall_timeout=st.sampled_from([None, 0.15]),
       refresh_interval=st.sampled_from([0.0, 0.02, 0.04]))
@settings(max_examples=200, deadline=None)
def test_arrival_cohorts_match_object_oracle(caps, paths, flow_specs, actions,
                                             stall_timeout, refresh_interval):
    """Long arrival cohorts, each opened in one ``open_many`` call: bit for
    bit the object-per-flow plane's run with one open per calendar entry,
    in fewer calendar events. A refresh tick at a path's RTT or delivery
    offset shares its instant with ramp steps and deliveries, so the
    cohort's push order shows."""
    args = (caps, paths, flow_specs, actions, stall_timeout, refresh_interval)
    net, events, seen = _drive(FluidNetwork, *args)
    _oracle, oracle_events, expected = _drive(OracleNetwork, *args)
    assert seen == expected
    assert events <= oracle_events
    assert refresh_interval or not (net._etas or net._deliveries)


@given(caps=_caps, paths=_paths, flow_specs=_flow_specs, actions=_actions,
       stall_timeout=st.sampled_from([None, 0.15]))
@settings(max_examples=40, deadline=None)
@example(**_SHARED_INSTANT)
@example(**_RAMP_BETWEEN_DELIVERIES)
def test_cohorts_match_per_flow_timers(caps, paths, flow_specs, actions,
                                       stall_timeout):
    """Same observable run as one timer per flow, in no more calendar
    events."""
    args = (caps, paths, flow_specs, actions, stall_timeout)
    _net, events, seen = _drive(FluidNetwork, *args)
    _oracle, oracle_events, expected = _drive(PerFlowTimerNetwork, *args)
    assert seen == expected
    assert events <= oracle_events


def _identical_flows(net_cls, n, factor):
    sim = Simulator(seed=1)
    net = net_cls(sim, refresh_interval=0.0)
    path = FluidPath(links=((FluidLink("l0", capacity_bps=100e6), factor),),
                     rtt=0.02)
    flows = [net.open(path=path, size_bytes=64 * 1024, ramp=False)
             for _ in range(n)]
    sim.run()
    return sim, flows


def test_identical_flows_share_completion_entries():
    """1,000 flows finishing together: one solve, one ETA cohort, one
    re-solve and one delivery cohort; no flow's ``done`` is read, so none
    has an entry of its own."""
    sim, flows = _identical_flows(FluidNetwork, 1000, 1.0)
    assert all(f.state == "done" for f in flows)
    assert sim.events_dispatched == 4
    assert all(f.done.processed and f.done.value is f for f in flows)


def test_ten_thousand_identical_flows_match_oracle():
    """A link weight summed over 10^4 flows: its last bit moves the rate,
    the ETA and the clock unless it is summed in flow order."""
    sim, flows = _identical_flows(FluidNetwork, 10_000, 1.04)
    osim, oflows = _identical_flows(OracleNetwork, 10_000, 1.04)
    assert sim.now == osim.now
    assert [(f.state, f.delivered, f.rate) for f in flows] == \
        [(f.state, f.delivered, f.rate) for f in oflows]
    assert ({p: sim.metrics.value(p) for p in sim.metrics.select(["fluid"])}
            == {p: osim.metrics.value(p) for p in osim.metrics.select(["fluid"])})
    assert sim.trace.export(["fluid"]) == osim.trace.export(["fluid"])


def test_done_read_in_the_instant_of_resolution_runs_at_once():
    """``done`` read in the instant its flow resolved, before the event
    the object-per-flow plane would have dispatched: the waiter runs at
    once (the one ordering the lazy ``done`` changes)."""
    order = []
    for net_cls in (FluidNetwork, OracleNetwork):
        sim = Simulator(seed=1)
        net = net_cls(sim)
        path = FluidPath(links=((FluidLink("l0", capacity_bps=100e6), 1.0),),
                         rtt=0.05)

        def go(net=net, path=path, sim=sim, log=[]):
            flow = net.open(path=path, size_bytes=1000, deliver_offset=0.0)
            flow.done.add_callback(lambda ev: log.append("done"))
            log.append("after read")
            order.append(log)
        sim.call_in(1.0, go)
        sim.run()
    assert order == [["done", "after read"], ["after read", "done"]]


def test_open_many_wants_one_name_per_path():
    sim = Simulator(seed=1)
    net = FluidNetwork(sim)
    path = FluidPath(links=((FluidLink("l0", capacity_bps=100e6), 1.0),), rtt=0.05)
    with pytest.raises(ValueError, match="2 paths but 1 names"):
        net.open_many([path, path], ["f0"], size_bytes=1000)
    assert net.open_many([], []) == [] and not net._handles
    assert sim.peek() == math.inf   # an empty cohort asks for no solve


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
    # Only the delivery cohort: nobody read `done` before it resolved.
    assert sim.events_dispatched == 1

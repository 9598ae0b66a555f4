"""Bottleneck-fairness scenario family (ROADMAP item 2).

Does L2-over-UDP tunneling distort TCP fairness the way overlay
routing does? Every paper figure is single-flow; this family puts
*competing* flows on one constrained path and measures how the share
splits, per congestion-control algorithm (:mod:`repro.net.cc`) and per
stack (WAVNet tunnel vs the IPOP baseline vs the native path):

* :func:`fairness_bottleneck` — n flows through one shared
  1 Mbps / 200 ms-RTT bottleneck (the defaults; both knobs are
  parameters). Runs at either fidelity: ``packet`` simulates every
  frame, ``fluid`` asks the max-min solver for the same shares.
* :func:`fairness_parking_lot` — the classic multi-hop topology: one
  long flow crosses every hop, one short flow per hop crosses only
  its own, so max-min says everyone gets half a link but RTT bias
  says otherwise.
* :func:`fairness_mix` — elephants vs mice: long streams share the
  bottleneck with a stream of short transfers; reports elephant
  shares and mice flow-completion times.

Every payload carries per-flow goodput, Jain's fairness index
(:func:`jains_index`), RTT inflation (mean smoothed RTT over the base
path RTT, from the per-flow cc-trace series) and bottleneck-link
utilization, which is what ``benchmarks/bench_fairness.py`` gates on.

The default buffer sizing (``send_buf=recv_buf=32768``) puts the
aggregate window just under queue + BDP at the default bottleneck, so
loss-based algorithms reach a stable ACK-clocked equilibrium — the
regime where the fluid solver's shares are comparable within a few
percent. Raise the buffers to study the lossy regime (drops, w_max
convergence, BBR's probe cycles); the fluid plane has no queue, so
expect packet shares to drift from max-min there.
"""

from __future__ import annotations

import math

from repro.apps.netperf import netperf_stream, netserver
from repro.core.options import TransferOptions, check_fidelity
from repro.exp.spec import scenario
from repro.net.cc import cc_class
from repro.scenarios.fluid import fluidify, wire_overhead_for
from repro.scenarios.stacks import stack_pair

__all__ = ["fairness_bottleneck", "fairness_mix", "fairness_parking_lot",
           "jains_index"]


def jains_index(rates) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in (0, 1];
    1.0 means perfectly equal shares, 1/n means one flow has it all."""
    xs = [float(x) for x in rates]
    if not xs:
        return 0.0
    total = sum(xs)
    square = sum(x * x for x in xs)
    if square <= 0.0:
        return 0.0
    return total * total / (len(xs) * square)


def _cc_list(cc, n_flows: int) -> list:
    """Expand a cc spec ("cubic", "reno,cubic,bbr", or a list) to one
    algorithm name per flow, validating each against the registry."""
    if isinstance(cc, str):
        names = [c.strip() for c in cc.split(",") if c.strip()]
    else:
        names = list(cc)
    for name in names:
        cc_class(name)  # unknown names fail here, listing what exists
    return [names[i % len(names)] for i in range(n_flows)]


def _rtt_inflation(metrics, stack_name: str, labels, base_rtt_ms: float):
    """Mean smoothed RTT across the labelled flows' cc-trace series,
    over the base path RTT (1.0 = no queueing delay)."""
    means = []
    for label in labels:
        series = metrics.series(f"{stack_name}.tcp.{label}.srtt_ms").values
        if series.size:
            means.append(float(series.mean()))
    if not means or base_rtt_ms <= 0:
        return None
    return (sum(means) / len(means)) / base_rtt_ms


@scenario("fairness_bottleneck")
def fairness_bottleneck(seed: int = 0, stack: str = "wavnet",
                        cc: str = "cubic", n_flows: int = 3,
                        fidelity: str = "packet", rtt_ms: float = 200.0,
                        bandwidth_mbps: float = 1.0, duration: float = 40.0,
                        mss: int = 1460, send_buf: int = 32768,
                        recv_buf: int = 32768, interval: float = 1.0,
                        stagger: float = 0.5):
    """``n_flows`` concurrent streams through one shared bottleneck.

    ``cc`` may name one algorithm for all flows or a comma-separated
    list assigned round-robin ("reno,cubic,bbr" races the three).
    Flow starts are staggered ``stagger`` seconds apart to break
    slow-start synchronization; each flow runs ``duration`` seconds."""
    check_fidelity(fidelity)
    ccs = _cc_list(cc, n_flows)
    pair = stack_pair(stack, rtt_ms / 1000.0, bandwidth_mbps * 1e6,
                      seed=seed, mss=mss, send_buf=send_buf,
                      recv_buf=recv_buf)
    sim = pair.sim
    if fidelity == "fluid":
        fluidify(pair, mss=mss)
    else:
        sim.process(netserver(pair.host_b))

    labels = [f"fair{i}" for i in range(n_flows)]
    procs = []

    def one_flow(i):
        yield sim.timeout(i * stagger)
        result = yield from netperf_stream(
            pair.host_a, pair.ip_b, duration=duration, interval=interval,
            options=TransferOptions(
                fidelity=fidelity, cc=ccs[i],
                cc_trace=labels[i] if fidelity == "packet" else None))
        return result

    for i in range(n_flows):
        procs.append(sim.process(one_flow(i), name=labels[i]))
    for p in procs:
        sim.run(until=p)

    results = [p.value for p in procs]
    per_flow = [r.throughput_mbps for r in results]
    wire_factor = (mss + wire_overhead_for(stack, mss)) / mss
    window = duration + (n_flows - 1) * stagger
    total_bytes = sum(r.bytes_received for r in results)
    utilization = (total_bytes * 8 * wire_factor
                   / (bandwidth_mbps * 1e6 * window))
    inflation = (1.0 if fidelity == "fluid" else _rtt_inflation(
        sim.metrics, pair.host_a.stack.name, labels, rtt_ms))
    payload = {
        "stack": stack, "fidelity": fidelity, "cc": ccs,
        "n_flows": n_flows, "base_rtt_ms": rtt_ms,
        "bandwidth_mbps": bandwidth_mbps,
        "per_flow_mbps": per_flow,
        "jain": jains_index(per_flow),
        "rtt_inflation": inflation,
        "utilization": utilization,
    }
    return sim, payload


@scenario("fairness_parking_lot")
def fairness_parking_lot(seed: int = 0, cc: str = "cubic", n_hops: int = 3,
                         fidelity: str = "packet", rtt_ms: float = 200.0,
                         bandwidth_mbps: float = 1.0, duration: float = 40.0,
                         mss: int = 1460, send_buf: int = 32768,
                         recv_buf: int = 32768, interval: float = 1.0):
    """Parking lot: hosts h0..hN hang off a chain of switches joined by
    ``n_hops`` equal bottleneck links. One long flow h0 -> hN crosses
    every link; short flow i (h_{i-1} -> h_i) crosses only link i. Flow
    0 of the payload is the long flow. Max-min grants every flow half a
    link; the packet plane shows how far RTT bias pulls the long flow
    below that."""
    from repro.net.addresses import IPv4Address
    from repro.net.fluid import FluidNetwork, FluidPath
    from repro.net.l2 import Link, Switch
    from repro.net.stack import Host
    from repro.net.tcp import WIRE_OVERHEAD_TCP
    from repro.scenarios.builder import named_mac_factory
    from repro.sim.engine import Simulator

    check_fidelity(fidelity)
    n_flows = n_hops + 1
    ccs = _cc_list(cc, n_flows)
    sim = Simulator(seed=seed)
    hop_latency = (rtt_ms / 1000.0) / (2.0 * n_hops)

    switches = [Switch(sim, name=f"pl.s{i}") for i in range(n_hops + 1)]
    hop_links = []
    for i in range(n_hops):
        hop_links.append(Link(sim, switches[i].new_port(),
                              switches[i + 1].new_port(),
                              latency=hop_latency,
                              bandwidth_bps=bandwidth_mbps * 1e6,
                              name=f"pl.l{i + 1}"))
    hosts, ips = [], []
    for i in range(n_hops + 1):
        host = Host(sim, f"plh{i}", named_mac_factory(f"plh{i}"),
                    tcp_mss=mss, tcp_send_buf=send_buf, tcp_recv_buf=recv_buf)
        ip = f"10.50.0.{i + 1}"
        iface = host.add_nic().configure(ip, "10.50.0.0/24")
        host.stack.connected_route_for(iface)
        Link(sim, iface.port, switches[i].new_port(), latency=1e-4,
             bandwidth_bps=1e9, name=f"plh{i}.access")
        hosts.append(host)
        ips.append(IPv4Address(ip))

    # (src_idx, dst_idx): long flow first, then one short flow per hop.
    flows = [(0, n_hops)] + [(i, i + 1) for i in range(n_hops)]
    for host in hosts:
        sim.process(netserver(host))

    if fidelity == "fluid":
        net = FluidNetwork(sim)
        factor = (mss + WIRE_OVERHEAD_TCP) / mss
        for src, dst in flows:
            links = tuple((net.link_for(hop_links[k], "ab"), factor)
                          for k in range(src, dst))
            path_rtt = 2.0 * hop_latency * (dst - src) + 4e-4
            net.add_route(hosts[src].name, str(ips[dst]),
                          FluidPath(links=links, rtt=path_rtt, mss=mss))

    labels = [f"pl{i}" for i in range(n_flows)]
    procs = []

    def one_flow(i, src, dst):
        yield sim.timeout(i * 0.5)
        result = yield from netperf_stream(
            hosts[src], ips[dst], duration=duration, interval=interval,
            options=TransferOptions(
                fidelity=fidelity, cc=ccs[i],
                cc_trace=labels[i] if fidelity == "packet" else None))
        return result

    for i, (src, dst) in enumerate(flows):
        procs.append(sim.process(one_flow(i, src, dst), name=labels[i]))
    for p in procs:
        sim.run(until=p)

    per_flow = [p.value.throughput_mbps for p in procs]
    fair_share = bandwidth_mbps / 2.0 * mss / (mss + WIRE_OVERHEAD_TCP)
    payload = {
        "fidelity": fidelity, "cc": ccs, "n_hops": n_hops,
        "base_rtt_ms": rtt_ms, "bandwidth_mbps": bandwidth_mbps,
        "per_flow_mbps": per_flow,
        "long_flow_mbps": per_flow[0],
        "jain": jains_index(per_flow),
        "long_vs_maxmin": per_flow[0] / fair_share if fair_share else None,
    }
    return sim, payload


@scenario("fairness_mix")
def fairness_mix(seed: int = 0, stack: str = "wavnet", cc: str = "cubic",
                 mice_cc: str = "", n_elephants: int = 2,
                 mice_kb: int = 64, mice_interval: float = 2.0,
                 fidelity: str = "packet", rtt_ms: float = 200.0,
                 bandwidth_mbps: float = 1.0, duration: float = 40.0,
                 mss: int = 1460, send_buf: int = 32768,
                 recv_buf: int = 32768):
    """Elephants vs mice on the shared bottleneck: ``n_elephants``
    long-running streams plus one short ``mice_kb`` transfer launched
    every ``mice_interval`` seconds. Reports elephant shares (Jain over
    elephants) and mice flow-completion times — the latency cost
    background bulk traffic imposes on short flows."""
    check_fidelity(fidelity)
    from repro.apps.ttcp import TTCP_PORT, ttcp_transfer

    e_ccs = _cc_list(cc, n_elephants)
    m_cc = mice_cc or (e_ccs[0] if e_ccs else "cubic")
    _cc_list(m_cc, 1)
    pair = stack_pair(stack, rtt_ms / 1000.0, bandwidth_mbps * 1e6,
                      seed=seed, mss=mss, send_buf=send_buf,
                      recv_buf=recv_buf)
    sim = pair.sim
    if fidelity == "fluid":
        fluidify(pair, mss=mss)
    else:
        sim.process(netserver(pair.host_b))
        sim.process(netserver(pair.host_b, port=TTCP_PORT))

    elephants = [sim.process(
        netperf_stream(pair.host_a, pair.ip_b, duration=duration,
                       options=TransferOptions(fidelity=fidelity,
                                               cc=e_ccs[i])),
        name=f"elephant{i}") for i in range(n_elephants)]

    fcts: list[float] = []
    mice_failed = [0]

    def mouse():
        t0 = sim.now
        try:
            yield from ttcp_transfer(pair.host_a, pair.ip_b, mice_kb * 1024,
                                     options=TransferOptions(
                                         fidelity=fidelity, cc=m_cc))
        except Exception:
            mice_failed[0] += 1
            return
        fcts.append(sim.now - t0)

    def mice_loop():
        t_end = sim.now + duration
        while sim.now < t_end - 1e-9:
            sim.process(mouse())
            yield sim.timeout(mice_interval)

    sim.process(mice_loop())
    for p in elephants:
        sim.run(until=p)
    sim.run(until=sim.now + 5.0)  # let the last mice drain

    e_rates = [p.value.throughput_mbps for p in elephants]
    fct_ms = sorted(f * 1000.0 for f in fcts)
    payload = {
        "stack": stack, "fidelity": fidelity, "cc": e_ccs, "mice_cc": m_cc,
        "elephant_mbps": e_rates,
        "jain_elephants": jains_index(e_rates),
        "mice_done": len(fct_ms), "mice_failed": mice_failed[0],
        "mice_fct_ms_mean": (sum(fct_ms) / len(fct_ms)) if fct_ms else None,
        "mice_fct_ms_p95": (fct_ms[min(len(fct_ms) - 1,
                                       math.ceil(0.95 * len(fct_ms)) - 1)]
                            if fct_ms else None),
    }
    return sim, payload

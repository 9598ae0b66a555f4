"""netperf TCP_STREAM with interim results (Figs 7, 8, 9).

``netperf_stream`` pushes bytes for a fixed duration; a poller records
the delivery rate every ``interval`` seconds (the paper polls every
500 ms during migration experiments). Delivery is measured as
cumulatively ACKed bytes at the sender — identical to the receiver's
in-order byte count for TCP, and measurable even when the path crosses
NATs that rewrite the connection's addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.options import TransferOptions, fluid_network, resolve_options
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.tcp import ConnectionReset

__all__ = ["NetperfResult", "netperf_stream", "netserver"]

NETPERF_PORT = 12865
CHUNK = 65536  # bytes per send() of the stream


@dataclass
class NetperfResult:
    duration: float
    bytes_received: int
    times: list = field(default_factory=list)
    rates_mbps: list = field(default_factory=list)

    @property
    def throughput_mbps(self) -> float:
        return self.bytes_received * 8 / 1e6 / self.duration if self.duration > 0 else 0.0


def netserver(host: Host, port: int = NETPERF_PORT):
    """Process: accept and drain TCP_STREAM connections forever."""
    from repro.net.tcp import drain_bytes

    listener = host.tcp.listen(port)
    while True:
        conn = yield listener.accept()
        host.sim.process(drain_bytes(conn), name=f"netserver:{host.name}")


def netperf_stream(host: Host, dst_ip: IPv4Address,
                   duration: float = 10.0, interval: float = 0.5,
                   options: "TransferOptions | None" = None):
    """Process: TCP_STREAM from ``host`` to a :func:`netserver` on
    :data:`NETPERF_PORT` at ``dst_ip`` for ``duration`` seconds; returns
    NetperfResult.

    Transfer behaviour comes from a :class:`TransferOptions` bundle.

    ``TransferOptions.fidelity="fluid"`` runs the stream as one
    duration-mode fluid flow (no netserver needed); interim rates come
    from the solver's allocation and land in the same
    ``<host>.netperf.rate_mbps`` series.

    ``TransferOptions.cc`` picks the congestion-control algorithm
    (``None`` = stack default / Reno's fluid loss response).
    ``TransferOptions.cc_trace`` enables the per-flow
    ``<stack>.tcp.<label>.{cwnd,ssthresh,srtt_ms}`` time series under
    that label (packet fidelity only)."""
    opts = resolve_options(options, TransferOptions, "netperf_stream")
    fidelity, cc, cc_trace = opts.fidelity, opts.cc, opts.cc_trace
    sim = host.sim
    if fidelity == "fluid":
        fluid = fluid_network(sim)
        path = fluid.route(host.name, dst_ip)
        yield sim.timeout(path.rtt)  # connection establishment
        result = NetperfResult(duration, 0)
        flow = fluid.open(host.name, dst_ip, size_bytes=None,
                          send_buf=host.tcp.send_buf,
                          recv_buf=host.tcp.recv_buf,
                          name=f"netperf:{host.name}", cc=cc)
        rate_series = sim.metrics.series(f"{host.name}.netperf.rate_mbps")
        t_end = sim.now + duration
        last = flow.progress()
        while sim.now < t_end - 1e-9:
            step = min(interval, t_end - sim.now)
            yield sim.timeout(step)
            got = flow.progress()
            rate = (got - last) * 8 / 1e6 / step
            result.times.append(sim.now)
            result.rates_mbps.append(rate)
            rate_series.record(rate)
            last = got
        flow.close()
        result.bytes_received = int(flow.delivered)
        return result
    conn = host.tcp.connect(dst_ip, NETPERF_PORT, cc=cc)
    if cc_trace is not None:
        conn.enable_cc_trace(cc_trace)
    try:
        yield conn.wait_established()
    except ConnectionReset:
        return NetperfResult(duration, 0)
    result = NetperfResult(duration, 0)
    t_end = sim.now + duration
    done = sim.timeout(duration)
    start_acked = conn.bytes_acked_total
    # Interim rates also land in the registry (``<host>.netperf.rate_mbps``)
    # so figure benchmarks can read the timeline without holding `result`.
    rate_series = sim.metrics.series(f"{host.name}.netperf.rate_mbps")

    def poller(sim):
        last = conn.bytes_acked_total
        while sim.now < t_end - 1e-9:
            yield sim.timeout(interval)
            now_acked = conn.bytes_acked_total
            rate = (now_acked - last) * 8 / 1e6 / interval
            result.times.append(sim.now)
            result.rates_mbps.append(rate)
            rate_series.record(rate)
            last = now_acked

    poll_proc = sim.process(poller(sim))

    def pusher(sim):
        try:
            while sim.now < t_end - 1e-9 and not conn.reset:
                ev = conn.send(CHUNK)
                yield sim.any_of([ev, sim.timeout(max(t_end - sim.now, 0.01))])
        except ConnectionReset:
            return  # test ended / connection torn down mid-send

    sim.process(pusher(sim))
    yield done
    yield poll_proc
    result.bytes_received = conn.bytes_acked_total - start_acked
    if not conn.reset:
        conn.abort()  # netperf test over; no graceful drain needed
    return result

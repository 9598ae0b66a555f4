"""ttcp: fixed-size bulk TCP transfer (the Fig 6 benchmark).

The paper runs ``ttcp`` with transfer sizes 64/128/256 MB and a 16384 B
buffer, reporting the transfer rate in KB/s. :func:`ttcp_transfer`
reproduces that: connect, stream ``total_bytes`` with ``buf_size``
writes, report ``KB/s`` over the data phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.options import TransferOptions, fluid_network, resolve_options
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.tcp import drain_bytes, stream_bytes

__all__ = ["TtcpResult", "ttcp_receiver", "ttcp_transfer"]

TTCP_PORT = 5010


@dataclass
class TtcpResult:
    total_bytes: int
    elapsed: float

    @property
    def rate_kbps(self) -> float:
        """KB/s, as ttcp prints."""
        return self.total_bytes / 1024.0 / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def rate_mbit(self) -> float:
        return self.total_bytes * 8 / 1e6 / self.elapsed if self.elapsed > 0 else 0.0


def ttcp_receiver(host: Host, port: int = TTCP_PORT):
    """Process: accept one connection and drain it; returns bytes received."""
    listener = host.tcp.listen(port)
    conn = yield listener.accept()
    got = yield from drain_bytes(conn)
    listener.close()
    return got


def ttcp_transfer(host: Host, dst_ip: IPv4Address, total_bytes: int,
                  buf_size: int = 16384, port: int = TTCP_PORT,
                  options: Optional[TransferOptions] = None):
    """Process: transmit ``total_bytes``; returns TtcpResult (sender side,
    timed from first write to last byte acknowledged — what ttcp -t reports).

    Transfer behaviour comes from a :class:`TransferOptions` bundle.

    ``TransferOptions.fidelity="fluid"`` runs the same transfer on the
    flow-level plane (requires a :class:`~repro.net.fluid.FluidNetwork`
    with a route for ``(host.name, dst_ip)``): no receiver process is
    needed, and the result carries the solver's completion time instead
    of per-frame dynamics.

    ``TransferOptions.cc`` names a registered congestion-control
    algorithm (:func:`repro.net.cc.cc_names`); ``None`` keeps the host
    stack's default at packet fidelity and Reno's loss response at
    fluid fidelity."""
    opts = resolve_options(options, TransferOptions, "ttcp_transfer")
    fidelity, cc = opts.fidelity, opts.cc
    sim = host.sim
    if fidelity == "fluid":
        fluid = fluid_network(sim)
        path = fluid.route(host.name, dst_ip)
        yield sim.timeout(path.rtt)  # SYN / SYN-ACK handshake
        t0 = sim.now
        flow = fluid.open(host.name, dst_ip, size_bytes=total_bytes,
                          send_buf=host.tcp.send_buf,
                          recv_buf=host.tcp.recv_buf,
                          name=f"ttcp:{host.name}", cc=cc)
        yield flow.done
        # flow.done fires rtt/2 after the last byte leaves the sender
        # (propagation); ttcp's clock additionally waits for the final
        # ACK to come back — another half RTT.
        elapsed = sim.now - t0 + path.rtt / 2
        return TtcpResult(total_bytes, elapsed)
    conn = host.tcp.connect(dst_ip, port, cc=cc)
    yield conn.wait_established()
    t0 = sim.now
    yield from stream_bytes(conn, total_bytes, chunk=buf_size)
    # ttcp's clock stops when the send buffer drains (close + wait).
    conn.close()
    while conn.snd_una < conn.snd_max and not conn.reset:
        yield sim.timeout(0.05)
    elapsed = sim.now - t0
    return TtcpResult(total_bytes, elapsed)

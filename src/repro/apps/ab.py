"""ApacheBench (ab) model: closed-loop HTTP load with concurrency.

``ab -c C`` keeps C workers busy, each doing connect -> request ->
response -> close, repeatedly. We report exactly what the paper reads
off ab's output:

* requests/second (Table IV, Fig 10's AB-throughput timeline);
* connection time min/mean/max in ms (Table III).

Workers label every sample with its completion time so the timeline
figures can resample request throughput in 1-second buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps.httpd import (HTTP_PORT, SERVICE_TIME, HttpRequest,
                              HttpResponse, response_size_for)
from repro.core.options import TransferOptions, fluid_network, resolve_options
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.tcp import ConnectionReset
from repro.sim.engine import Interrupt

__all__ = ["AbReport", "ApacheBench"]

CONNECT_TIMEOUT = 10.0  # seconds a handshake may take before the request fails


@dataclass
class AbReport:
    requests_completed: int = 0
    requests_failed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    connect_times: list = field(default_factory=list)   # seconds
    total_times: list = field(default_factory=list)     # request round trip
    completion_stamps: list = field(default_factory=list)  # sim time per completion

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def requests_per_second(self) -> float:
        return self.requests_completed / self.duration if self.duration > 0 else 0.0

    def connect_ms(self) -> tuple[float, float, float]:
        """(min, mean, max) connection time in milliseconds."""
        if not self.connect_times:
            return (float("nan"),) * 3
        arr = np.asarray(self.connect_times) * 1000.0
        return (float(arr.min()), float(arr.mean()), float(arr.max()))

    def throughput_series(self, interval: float = 1.0) -> "tuple[np.ndarray, np.ndarray]":
        """(bucket start times, req/s per bucket) for timeline figures."""
        if not self.completion_stamps:
            return np.empty(0), np.empty(0)
        stamps = np.asarray(self.completion_stamps)
        edges = np.arange(self.started_at, self.finished_at + interval, interval)
        if edges.size < 2:
            return np.empty(0), np.empty(0)
        counts, _ = np.histogram(stamps, bins=edges)
        return edges[:-1], counts / interval


class ApacheBench:
    """Closed-loop HTTP benchmark client."""

    def __init__(self, host: Host, server_ip: IPv4Address, path: str = "/file1k",
                 concurrency: int = 1,
                 options: Optional[TransferOptions] = None) -> None:
        opts = resolve_options(options, TransferOptions, "ApacheBench")
        fidelity, cc = opts.fidelity, opts.cc
        self.host = host
        self.server_ip = server_ip
        self.path = path
        self.concurrency = concurrency
        # Fluid mode: no server process; each response is one cold-start
        # fluid flow.
        self.fidelity = fidelity
        # cc=None: stack default (packet) / Reno's loss response (fluid).
        self.cc = cc
        self.report = AbReport()
        self._stop = False
        self._remaining = float("inf")  # requests left to start

    def run_for(self, duration: float):
        """Process: run C workers for ``duration`` seconds; returns AbReport."""
        sim = self.host.sim
        self.report.started_at = sim.now
        workers = [sim.process(self._client(), name=f"ab:{self.host.name}:{i}")
                   for i in range(self.concurrency)]
        yield sim.timeout(duration)
        self._stop = True
        for w in workers:
            if w.is_alive:
                w.interrupt("ab done")
        self.report.finished_at = sim.now
        return self.report

    def run_requests(self, count: int):
        """Process: issue exactly ``count`` requests over the C workers
        (ab -n style) and return once every one has completed or failed."""
        sim = self.host.sim
        self.report.started_at = sim.now
        self._remaining = count
        workers = [sim.process(self._client(), name=f"ab:{self.host.name}:{i}")
                   for i in range(self.concurrency)]
        for w in workers:
            yield w
        self.report.finished_at = sim.now
        return self.report

    def _client(self):
        one = (self._one_request_fluid if self.fidelity == "fluid"
               else self._one_request)
        try:
            # Count requests as they start, not as they finish, so
            # run_requests(n) issues exactly n whatever is in flight.
            while not self._stop and self._remaining > 0:
                self._remaining -= 1
                yield from one()
        except Interrupt:
            return

    def _one_request_fluid(self):
        """connect (1 RTT) -> request (RTT/2) -> service -> response
        (HTTP/1.0: a fresh connection and congestion window per request).

        Small responses are latency-bound, not rate-bound: the cost is
        the number of slow-start rounds, one RTT each, with round k
        shipping IW*2^(k-1) bytes. We charge those rounds as explicit
        timeouts and put only the final round's residual on a ramp-free
        fluid flow, so it still contends for shared-link capacity. Round
        counting stops once the doubled window would exceed what the
        path can carry per RTT — past that point the transfer is
        rate-bound and the fluid flow models it alone."""
        from repro.net.cc import slow_start_rounds
        from repro.net.fluid import FluidAborted

        sim = self.host.sim
        fluid = fluid_network(sim)
        # The response rides the client->server route, which is exact on
        # the symmetric-capacity topologies the benches build.
        path = fluid.route(self.host.name, self.server_ip)
        size = response_size_for(self.path)
        t_start = sim.now
        yield sim.timeout(path.rtt)            # SYN / SYN-ACK
        self.report.connect_times.append(sim.now - t_start)
        yield sim.timeout(path.rtt / 2)        # request reaches the server
        yield sim.timeout(SERVICE_TIME)
        window = min(self.host.tcp.send_buf, self.host.tcp.recv_buf)
        per_rtt = min(fluid.path_rate(path) * path.rtt / 8.0, window)
        rounds, sent = slow_start_rounds(size, path.mss, per_rtt)
        if rounds > 1:
            yield sim.timeout((rounds - 1) * path.rtt)
        flow = fluid.open(path=path, size_bytes=size - sent, ramp=False,
                          send_buf=self.host.tcp.send_buf,
                          recv_buf=self.host.tcp.recv_buf,
                          name=f"ab:{self.host.name}", cc=self.cc)
        try:
            yield flow.done
        except FluidAborted:
            self.report.requests_failed += 1
            return
        finally:
            flow.close()  # no-op when already done; frees aborted waiters
        self.report.requests_completed += 1
        self.report.total_times.append(sim.now - t_start)
        self.report.completion_stamps.append(sim.now)

    def _one_request(self):
        sim = self.host.sim
        t_start = sim.now
        conn = self.host.tcp.connect(self.server_ip, HTTP_PORT, cc=self.cc)
        deadline = sim.timeout(CONNECT_TIMEOUT)
        established = conn.wait_established()
        yield sim.any_of([established, deadline])
        if not established.processed or not established.ok:
            self.report.requests_failed += 1
            conn.abort()
            if not established.processed:
                # Leave a failed handshake behind; back off briefly.
                yield sim.timeout(0.1)
            return
        self.report.connect_times.append(sim.now - t_start)
        request = HttpRequest(self.path)
        try:
            yield conn.send(request.size, obj=request)
        except ConnectionReset:
            self.report.requests_failed += 1
            return
        # Read until the response marker (headers+body fully delivered).
        response: Optional[HttpResponse] = None
        while response is None:
            chunk = yield conn.recv()
            if chunk is None:
                break
            conn.app_read(chunk.nbytes)
            for obj in chunk.objs:
                if isinstance(obj, HttpResponse):
                    response = obj
        if response is None or response.status != 200:
            self.report.requests_failed += 1
            conn.close()
            return
        conn.close()
        self.report.requests_completed += 1
        self.report.total_times.append(sim.now - t_start)
        self.report.completion_stamps.append(sim.now)

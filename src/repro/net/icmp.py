"""ICMP echo (the substrate for every ping measurement in the paper).

The layer answers echo-requests addressed to the stack and routes
echo-replies back to the :class:`Pinger` that issued them. RTT is
measured from the timestamp the requester stamped into the message, which
the responder echoes back unchanged — exactly how ``ping`` works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addresses import IPv4Address
from repro.net.packet import IcmpMessage, ipv4
from repro.sim.queues import Store

__all__ = ["IcmpLayer", "PingResult", "Pinger"]


class IcmpLayer:
    """Per-stack ICMP echo responder and reply demultiplexer."""

    def __init__(self, stack) -> None:
        self.stack = stack
        self._listeners: dict[int, Store] = {}  # ident -> reply inbox
        self._next_ident = 1
        self.echo_requests_answered = 0

    def new_ident(self) -> int:
        ident = self._next_ident
        self._next_ident += 1
        return ident

    def listen(self, ident: int) -> Store:
        inbox = Store(self.stack.sim)
        self._listeners[ident] = inbox
        return inbox

    def unlisten(self, ident: int) -> None:
        self._listeners.pop(ident, None)

    def send_echo_request(
        self, dst: IPv4Address, ident: int, seq: int, payload_size: int = 56
    ) -> None:
        msg = IcmpMessage(
            "echo-request", ident, seq, payload_size=payload_size, timestamp=self.stack.sim.now
        )
        self.stack.send_ip(ipv4(self.stack.source_ip_for(dst), dst, msg))

    def receive(self, packet) -> None:
        msg: IcmpMessage = packet.payload
        if msg.kind == "echo-request":
            self.echo_requests_answered += 1
            reply = IcmpMessage(
                "echo-reply", msg.ident, msg.seq, msg.payload_size, timestamp=msg.timestamp
            )
            self.stack.send_ip(ipv4(self.stack.source_ip_for(packet.src), packet.src, reply))
        elif msg.kind == "echo-reply":
            inbox = self._listeners.get(msg.ident)
            if inbox is not None:
                inbox.try_put((msg, packet.src))


@dataclass
class PingResult:
    """Outcome of a ping run: per-probe RTTs (seconds) and loss count."""

    rtts: list = field(default_factory=list)
    sent: int = 0
    lost: int = 0
    # (send_time, rtt_or_None) per probe, for timeline figures (Fig 10).
    samples: list = field(default_factory=list)

    @property
    def received(self) -> int:
        return self.sent - self.lost

    def mean_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else float("nan")

    def min_rtt(self) -> float:
        return min(self.rtts) if self.rtts else float("nan")

    def max_rtt(self) -> float:
        return max(self.rtts) if self.rtts else float("nan")


class Pinger:
    """``ping``-style prober: periodic echo requests with a per-probe timeout."""

    def __init__(self, stack, dst: IPv4Address, interval: float = 1.0, timeout: float = 1.0,
                 payload_size: int = 56) -> None:
        self.stack = stack
        self.dst = dst
        self.interval = interval
        self.timeout = timeout
        self.payload_size = payload_size
        self.result = PingResult()

    def run(self, count: int):
        """Process: send ``count`` probes; returns the PingResult.

        Per-probe RTTs also land in the metrics registry under
        ``<stack>.ping.rtt`` (series) / ``<stack>.ping.lost`` (counter)
        so benchmarks can read measurements without holding the Pinger.
        """
        sim = self.stack.sim
        icmp: IcmpLayer = self.stack.icmp
        obs = sim.metrics.scope(f"{self.stack.name}.ping")
        rtt_series = obs.series("rtt")
        lost_counter = obs.counter("lost")
        ident = icmp.new_ident()
        inbox = icmp.listen(ident)
        # A single outstanding inbox.get() is reused across probes so that
        # a probe timing out never strands a getter that would swallow the
        # next probe's reply.
        pending_get = None
        try:
            for seq in range(count):
                send_time = sim.now
                icmp.send_echo_request(self.dst, ident, seq, self.payload_size)
                self.result.sent += 1
                deadline = sim.timeout(self.timeout)
                got_reply = False
                # Drain replies until ours arrives or the timeout fires;
                # late replies to earlier probes are discarded (as ping does).
                while True:
                    if pending_get is None:
                        pending_get = inbox.get()
                    yield sim.any_of([pending_get, deadline])
                    if not pending_get.processed:
                        break  # timed out; pending_get stays armed
                    msg, _src = pending_get.value
                    pending_get = None
                    if msg.seq == seq:
                        rtt = sim.now - msg.timestamp
                        self.result.rtts.append(rtt)
                        self.result.samples.append((send_time, rtt))
                        rtt_series.record(rtt)
                        got_reply = True
                        break
                if not got_reply:
                    self.result.lost += 1
                    lost_counter.add()
                    self.result.samples.append((send_time, None))
                remaining = self.interval - (sim.now - send_time)
                if remaining > 0:
                    yield sim.timeout(remaining)
        finally:
            icmp.unlisten(ident)
        return self.result

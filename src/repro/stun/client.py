"""STUN client: public-endpoint discovery and NAT classification.

Implements the RFC 3489 decision tree the paper relies on:

* **Test I** — plain binding request; learns the mapped (public) endpoint.
* **Test II** — request with change-IP+change-port; a reply means nothing
  filters inbound from unknown endpoints (OPEN or Full Cone).
* **Test I'** — plain request to the *alternate* server address; a
  different mapped port means per-destination mapping (Symmetric).
* **Test III** — request with change-port only; distinguishes Restricted
  Cone (reply arrives) from Port Restricted Cone (it does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.packet import Payload
from repro.net.udp import UdpSocket
from repro.stun.messages import STUN_PORT, StunRequest, StunResponse

__all__ = ["StunClient", "StunProbeResult"]

RETRIES = 2  # sends per test before it counts as unanswered


@dataclass
class StunProbeResult:
    """Outcome of a full classification run.

    ``alloc_stride`` is the inferred symmetric port-allocation stride:
    three consecutive allocations with equal deltas (Ford et al.'s
    predictability test) yield the delta; 0 means unpredictable or not
    symmetric, and peers will not attempt port prediction.
    """

    nat_type: NatType
    mapped_ip: Optional[IPv4Address]
    mapped_port: Optional[int]
    blocked: bool = False
    alloc_stride: int = 0

    @property
    def public_endpoint(self) -> tuple[IPv4Address, int]:
        if self.mapped_ip is None:
            raise RuntimeError("no mapped endpoint (UDP blocked?)")
        return (self.mapped_ip, self.mapped_port)


class StunClient:
    """Runs STUN tests from one host through one UDP socket.

    The socket used for probing is the same one later used for hole
    punching, so the discovered mapping is the one that matters. The
    client reads that socket through :meth:`on_datagram`: a standalone
    client is wired with ``sock.handler = client.on_datagram``, an owner
    that demultiplexes the socket (the WAVNet driver) hands it every
    :class:`StunResponse`. A test waits like ``RpcEndpoint.call``: it
    yields ``any_of([waiter, deadline])`` and the handler resolves
    ``waiter`` with the reply to the current transaction.
    """

    def __init__(self, stack, sock: UdpSocket, server_ip: IPv4Address | str,
                 timeout: float = 0.8) -> None:
        self.stack = stack
        self.sock = sock
        self.server_ip = IPv4Address(server_ip)
        self.timeout = timeout
        # Transaction ids start at a draw from a stream named after the
        # host: the same in every same-seed run, and a later client on
        # this host (driver restore) draws again, so it does not match a
        # stale reply to its predecessor.
        self._txid = int(stack.sim.rng.stream(
            f"stun.txid.{stack.name}").integers(1 << 32))
        self._waiter = None

    def on_datagram(self, payload: Payload, _src_ip, _src_port) -> None:
        """Socket handler: resolve the waiting test with the reply to its
        transaction; stale replies and anything that is not a STUN
        response are dropped."""
        msg = payload.data
        waiter = self._waiter
        if (waiter is not None and isinstance(msg, StunResponse)
                and msg.txid == self._txid):
            self._waiter = None
            waiter.succeed(msg)

    def _request(self, dst_ip: IPv4Address, dst_port: int,
                 change_ip: bool = False, change_port: bool = False):
        """Process: one test (with retries); returns StunResponse or None."""
        sim = self.stack.sim
        for _attempt in range(RETRIES):
            self._txid += 1
            req = StunRequest(self._txid, change_ip=change_ip, change_port=change_port)
            self._waiter = waiter = sim.event()
            self.sock.sendto(dst_ip, dst_port, Payload(req.size, data=req, kind="stun"))
            yield sim.any_of([waiter, sim.timeout(self.timeout)])
            if waiter.triggered:
                return waiter.value
        self._waiter = None
        return None

    def discover_endpoint(self):
        """Process: Test I only; returns (mapped_ip, mapped_port) or None."""
        response = yield from self._request(self.server_ip, STUN_PORT)
        if response is None:
            return None
        return (response.mapped_ip, response.mapped_port)

    def classify(self):
        """Process: full RFC 3489 classification; returns StunProbeResult."""
        test1 = yield from self._request(self.server_ip, STUN_PORT)
        if test1 is None:
            return StunProbeResult(NatType.SYMMETRIC, None, None, blocked=True)
        mapped = (test1.mapped_ip, test1.mapped_port)
        local_ips = self.stack.ips

        test2 = yield from self._request(self.server_ip, STUN_PORT,
                                         change_ip=True, change_port=True)
        if test1.mapped_ip in local_ips:
            # Not NATed at all; Test II separates OPEN from a symmetric
            # UDP firewall (we fold the latter into OPEN for the paper's
            # purposes: both accept hole-punched traffic after outbound).
            return StunProbeResult(NatType.OPEN, *mapped)
        if test2 is not None:
            return StunProbeResult(NatType.FULL_CONE, *mapped)

        # Test I against the alternate address: does the mapping move?
        test1b = yield from self._request(test1.changed_ip, test1.changed_port)
        if test1b is None:
            # Alternate server unreachable: fall back conservatively.
            return StunProbeResult(NatType.SYMMETRIC, *mapped)
        alt_mapped = (test1b.mapped_ip, test1b.mapped_port)
        if alt_mapped != mapped:
            stride = yield from self._infer_stride(mapped, alt_mapped, test1)
            return StunProbeResult(NatType.SYMMETRIC, *mapped, alloc_stride=stride)

        test3 = yield from self._request(self.server_ip, STUN_PORT,
                                         change_port=True)
        if test3 is not None:
            return StunProbeResult(NatType.RESTRICTED_CONE, *mapped)
        return StunProbeResult(NatType.PORT_RESTRICTED, *mapped)

    def _infer_stride(self, mapped, alt_mapped, test1: StunResponse):
        """Process: allocation-inference probe for symmetric NATs.

        Tests I and I' already produced two consecutive allocations (the
        mapping toward the primary and alternate server addresses). One
        more binding request to a third server endpoint — the primary IP
        on the alternate port — yields a third. Equal deltas across the
        three mean a sequential/stride allocator; anything else (random
        allocation, a multi-homed NAT that moved IPs) is unpredictable.
        """
        if alt_mapped[0] != mapped[0]:
            return 0
        test1c = yield from self._request(self.server_ip, test1.changed_port)
        if test1c is None:
            return 0
        d1 = alt_mapped[1] - mapped[1]
        d2 = test1c.mapped_port - alt_mapped[1]
        if d1 == d2 and 0 < d1 <= 256:
            return d1
        return 0

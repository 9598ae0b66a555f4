"""Rendezvous server: CAN node + host registry + connection brokering.

This is the paper's "rendezvous server" (Fig 1-3): a public host that

1. admits desktop hosts into WAVNet (registration over the maintained
   UDP connection — the same flow whose NAT mapping later carries
   connection notifications);
2. publishes each host's resource state into the CAN so queries can be
   routed to it;
3. brokers direct host-to-host connection setup: steps 1-4 of Fig 3 —
   query routed over the CAN, rendezvous-to-rendezvous exchange, then
   both hosts receive the mutual connection information and punch;
4. runs the distance locator that feeds the locality-sensitive grouping
   strategy (§II.D).

Beyond the paper, the registry is backed by the struct-of-arrays
:class:`~repro.core.hoststate.HostTable` rather than per-host objects:
a server's registrations are the rows tagged with its index in the
``owner`` column (:meth:`RendezvousServer.registered`), so a million
registered-but-idle endpoints cost table rows, not Python object
stacks. There is one registration path: ``rvz.register`` carries a
:class:`~repro.core.hoststate.Registration`, column arrays for one
built host or for hundreds of storm endpoints in one envelope, and
replies with how many handles the CAN stored; ``rvz.keepalive`` carries
a tuple of names and replies with how many of them this server still
holds. A token bucket adds *admission control*: it sheds load during
registration storms with an explicit retry-after error instead of
silent queue collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.core.hoststate import FLAG_REGISTERED, SPEC, HostTable, Registration
from repro.net.addresses import IPv4Address
from repro.core.assembler import WavRelay
from repro.net.packet import Payload
from repro.overlay.can import HOST_TTL, CanNode
from repro.overlay.resources import ConnectionInfo
from repro.overlay.rpc import RpcEndpoint, RpcError
from repro.sim.engine import Simulator
from repro.sim.lifecycle import Component

__all__ = ["AdmissionReject", "RendezvousServer", "RENDEZVOUS_PORT"]

RENDEZVOUS_PORT = 4001


class AdmissionReject(RpcError):
    """Registration shed by the token bucket; retry after backoff."""


class _TokenBucket:
    """Deterministic token bucket (refill computed from sim time)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = 0.0

    def admit(self, now: float, n: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after(self, n: float) -> float:
        return max(0.0, (n - self.tokens) / self.rate)


@dataclass(frozen=True)
class _Keepalive:
    names: tuple

    @property
    def size(self) -> int:
        # One name bills the 64 B of a small control body.
        return 56 + 8 * len(self.names)


@dataclass(frozen=True)
class _ConnectBody:
    """a1 asks its rendezvous to broker a connection to ``target``."""

    requester: str
    requester_conn: ConnectionInfo
    target: str
    target_rendezvous_ip: IPv4Address
    target_rendezvous_port: int

    @property
    def size(self) -> int:
        return 64


@dataclass(frozen=True)
class _PunchNotice:
    """Delivered to a host: punch toward this peer now."""

    peer_name: str
    peer_conn: ConnectionInfo

    @property
    def size(self) -> int:
        return 48


class RendezvousServer(Component):
    """One rendezvous server (public host) with its CAN node.

    As a lifecycle :class:`~repro.sim.lifecycle.Component` (kind
    ``rendezvous``): ``crash`` kills the process — the registrations
    this server owns are released from the shared host table (volatile
    registry semantics), latency reports are lost, both sockets close,
    and the embedded CAN node crashes with it; ``restore`` rebinds and
    rejoins the CAN overlay through cached peer addresses. Hosts
    re-appear in the registry only when their keepalives (or a driver
    failover re-registration) arrive.
    """

    def __init__(self, host, table: HostTable, server_index: int = 0,
                 admission_rate: Optional[float] = None,
                 admission_burst: Optional[float] = None,
                 replication_factor: Optional[int] = None,
                 hot_zone_limit: Optional[int] = None) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        Component.__init__(self, host.sim, "rendezvous", host.name)
        self.port = RENDEZVOUS_PORT
        # One liveness horizon: the CAN stops answering for a host at
        # the same age at which :meth:`expire_hosts` unregisters it.
        self.host_ttl = HOST_TTL
        self.ip: IPv4Address = host.stack.ips[0]
        self.table = table
        self.server_index = server_index
        self.can = CanNode(host, table,
                           replication_factor=replication_factor,
                           hot_zone_limit=hot_zone_limit)
        self.latency_reports: dict[tuple[str, str], float] = {}
        self.connects_brokered = 0
        self.frames_relayed = 0
        self.admission = (_TokenBucket(admission_rate,
                                       admission_burst or 2 * admission_rate)
                          if admission_rate else None)
        self.metrics = self.sim.metrics.scope(f"{host.name}.rvz")
        self._m_registered = self.metrics.counter("hosts.registered")
        self._m_keepalives = self.metrics.counter("keepalives")
        self._m_queries = self.metrics.counter("queries")
        self._m_brokered = self.metrics.counter("connects.brokered")
        self._m_relay_frames = self.metrics.counter("relay.frames")
        self._m_relay_bytes = self.metrics.counter("relay.bytes")
        self._m_admitted = self.metrics.counter("admission.accepted")
        self._m_rejected = self.metrics.counter("admission.rejected")
        self._m_expired = self.metrics.counter("hosts.expired")
        self._sock = host.udp.bind(self.port)
        self._sock.handler = self._on_datagram
        self.rpc = RpcEndpoint(host.stack, self._sock, name=f"rvz:{host.name}")
        self.rpc.register("rvz.register", self._on_register)
        self.rpc.register("rvz.keepalive", self._on_keepalive)
        self.rpc.register("rvz.query", self._on_query)
        self.rpc.register("rvz.connect", self._on_connect)
        self.rpc.register("rvz.relay_connect", self._on_relay_connect)
        self.rpc.register("rvz.latency_report", self._on_latency_report)

    def _on_datagram(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        """Demultiplex the rendezvous socket: relayed tunnel payloads
        (symmetric-NAT fallback) to the target host's registered
        endpoint, everything else to the RPC endpoint."""
        body = payload.data
        if isinstance(body, WavRelay):
            i = self.registered(body.target)
            if i >= 0:
                self.frames_relayed += 1
                self._m_relay_frames.add()
                self._m_relay_bytes.add(payload.size)
                self._sock.sendto(IPv4Address(int(self.table.reach_ip[i])),
                                  int(self.table.reach_port[i]),
                                  Payload(payload.size, data=body, kind="wav"))
            return
        self.rpc.handle_datagram(payload, src_ip, src_port)

    # -- registry (this server's slice of the shared table) -------------
    def registered(self, name: str) -> int:
        """Row id of ``name`` if this server holds its live registration
        (owner column + ``FLAG_REGISTERED``), else -1."""
        i = self.table.lookup(name)
        if i < 0 or int(self.table.owner[i]) != self.server_index:
            return -1
        if not (self.table.flags[i] & FLAG_REGISTERED):
            return -1
        return i

    def host_names(self) -> list[str]:
        """Names registered with this server, in row order."""
        return self.table.names_of(
            self.table.registered_ids(owner=self.server_index))

    # -- lifecycle ------------------------------------------------------
    def _on_stop(self) -> None:
        self._sock.close()
        self.table.release_owner(self.server_index)
        self.latency_reports.clear()
        self.can.crash()

    def _on_restore(self) -> None:
        self._sock = self.host.udp.bind(self.port)
        self._sock.handler = self._on_datagram
        self.rpc.rebind(self._sock)
        self.can.restore()

    # -- overlay membership --------------------------------------------------
    def bootstrap(self) -> None:
        self.can.bootstrap()

    def join_via(self, other: "RendezvousServer"):
        return self.can.join_via(other.ip)

    # -- admission control -----------------------------------------------------
    def _admit(self, n: int) -> None:
        if self.admission is None:
            self._m_admitted.add(n)
            return
        if self.admission.admit(self.sim.now, n):
            self._m_admitted.add(n)
            return
        self._m_rejected.add(n)
        retry = self.admission.retry_after(n)
        self.sim.trace.event("rvz.admission_reject", server=self.host.name,
                             n=n, retry_after=round(retry, 3))
        raise AdmissionReject(f"admission: retry after {retry:.3f}")

    # -- host admission --------------------------------------------------------
    def _on_register(self, reg: Registration, src_ip: IPv4Address, src_port: int):
        """Admission: one token-bucket draw and one vectorized table
        write for the whole batch, then handle publication into the CAN
        grouped by owner — no per-endpoint RPC amplification. Replies
        ``("registered", stored)``: a host whose point's owner crashed
        and is not yet taken over is in the table but in no directory
        answer, and ``stored`` says so."""
        self._admit(len(reg))
        self._m_registered.add(len(reg))
        ids = self.table.register(reg, (self.ip, self.port), (src_ip, src_port),
                                  self.sim.now, owner=self.server_index)

        def publish():
            _stored, n = yield from self.can.put_ids(ids)
            return ("registered", n)

        return publish()

    def _on_keepalive(self, body: _Keepalive, src_ip: IPv4Address, src_port: int):
        """Liveness-epoch bump and reach-endpoint refresh (the NAT
        mapping this very datagram rode is where notifications go) for
        the names this server holds. Replies ``("ok", alive)``; a name
        it does not hold is not counted. No CAN refresh: directory
        answers read liveness from the table."""
        self._m_keepalives.add(len(body.names))
        alive = self.table.touch(body.names, self.sim.now, (src_ip, src_port),
                                 self.server_index)
        return ("ok", alive)

    # -- resource discovery -----------------------------------------------------
    def _on_query(self, body, _src_ip, _src_port):
        """Query: (attrs dict, limit) -> records near the requested point."""
        self._m_queries.add()
        attrs, limit = body

        def run():
            point = SPEC.to_point(**attrs)
            records = yield from self.can.route("get", point, int(limit))
            return records

        return run()

    # -- connection brokering (Fig 3 steps 2-3) ------------------------------
    def _on_connect(self, body: _ConnectBody, src_ip, src_port):
        """Requester's rendezvous (node A): exchange info with node B."""
        self.connects_brokered += 1
        self._m_brokered.add()
        # Stamp the requester's *live* mapping (the source of this very
        # RPC) as the prediction base. The STUN-time public_port is stale
        # for symmetric NATs — every flow since has advanced the
        # allocator — so peers predict from the freshest observation.
        if src_ip == body.requester_conn.public_ip:
            body = replace(body, requester_conn=replace(
                body.requester_conn, observed_port=src_port))

        def run():
            if (body.target_rendezvous_ip == self.ip
                    and body.target_rendezvous_port == self.port):
                result = yield from self._relay_local(body)
                return result
            result = yield from self.rpc.call(
                body.target_rendezvous_ip, body.target_rendezvous_port,
                "rvz.relay_connect", body, timeout=5.0)
            return result

        return run()

    def _on_relay_connect(self, body: _ConnectBody, _src_ip, _src_port):
        """Target's rendezvous (node B): notify b1, reply with its info."""
        return self._relay_local(body)

    def _relay_local(self, body: _ConnectBody):
        i = self.registered(body.target)
        if i < 0:
            raise RpcError(f"host {body.target!r} not registered here")
        # Step 3: tell b1 to start punching toward a1.
        self.rpc.notify(IPv4Address(int(self.table.reach_ip[i])),
                        int(self.table.reach_port[i]), "wav.punch",
                        _PunchNotice(body.requester, body.requester_conn))
        if False:
            yield  # pragma: no cover - keeps this a generator for uniformity
        return _PunchNotice(body.target, self.table.connection_info(i))

    # -- distance locator --------------------------------------------------------
    def _on_latency_report(self, body, _src_ip, _src_port):
        """Hosts report measured RTTs: (reporter, {peer_name: rtt_seconds})."""
        reporter, rtts = body
        for peer, rtt in rtts.items():
            self.latency_reports[(reporter, peer)] = rtt
            self.latency_reports[(peer, reporter)] = rtt  # symmetry (Eq. 2)
        return ("ok", len(rtts))

    def latency_matrix(self) -> "tuple[list[str], Any]":
        """(names, NxN numpy matrix) from accumulated reports (NaN where
        unmeasured) — the distance locator state used for grouping."""
        names = sorted({a for a, _b in self.latency_reports}
                       | {b for _a, b in self.latency_reports}
                       | set(self.host_names()))
        index = {n: i for i, n in enumerate(names)}
        matrix = np.full((len(names), len(names)), np.nan)
        np.fill_diagonal(matrix, 0.0)
        for (a, b), rtt in self.latency_reports.items():
            matrix[index[a], index[b]] = rtt
        return names, matrix

    # -- liveness -----------------------------------------------------------------
    def expire_hosts(self) -> list[str]:
        gone = self.table.expire(self.sim.now - self.host_ttl,
                                 owner=self.server_index)
        if gone:
            self._m_expired.add(len(gone))
        return gone

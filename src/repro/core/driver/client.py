"""The driver's rendezvous client: registration and failover, keepalive,
endpoint refresh, relay->direct upgrade, brokered connects (Fig 3)."""

from __future__ import annotations

from typing import Optional

from repro.core.hoststate import Registration
from repro.core.options import ConnectOptions, resolve_options
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.rendezvous import RENDEZVOUS_PORT, _ConnectBody, _Keepalive, _PunchNotice
from repro.overlay.resources import ConnectionInfo, ResourceRecord
from repro.overlay.rpc import RpcError, RpcTimeout
from repro.sim.engine import Interrupt
from repro.stun.client import StunClient

UPGRADE_INTERVAL = 30.0  # seconds between relay->direct upgrade attempts


class RendezvousClient:
    def start(self):
        """Process: STUN discovery, rendezvous registration, keepalive."""
        if self.stun_server_ip is not None:
            stun = StunClient(self.host.stack, self.sock, self.stun_server_ip)
            self._stun_client = stun
            probe = yield from stun.classify()
            self.nat_type = probe.nat_type
            self.alloc_stride = probe.alloc_stride
            if probe.mapped_ip is not None:
                self.public_endpoint = probe.public_endpoint
        if self.nat_type is None:
            self.nat_type = NatType.OPEN
        if self.public_endpoint is None:
            self.public_endpoint = (self.host.stack.ips[0], self.sock.port)
        if self.rendezvous_ip is not None:
            yield from self._register_somewhere()
            self._keepalive_proc = self.sim.process(
                self._rendezvous_keepalive(), name=f"wav-ka:{self.name}")
            self._upgrade_proc = self.sim.process(
                self._upgrade_loop(), name=f"wav-upgrade:{self.name}")
        if not self.started.triggered:
            self.started.succeed(self)
        return self

    def _register_somewhere(self, candidates=None, retries: int = 3):
        """Process: ``rvz.register`` with the first rendezvous candidate
        (by default primary first, then backups) that answers and stores
        the host's directory entry. If none does, ``rendezvous_ip`` is
        put back and the last error raised."""
        home = self.rendezvous_ip
        for ip in candidates or self.rendezvous_candidates:
            self.rendezvous_ip = ip
            try:
                _, stored = yield from self.rpc.call(
                    ip, RENDEZVOUS_PORT, "rvz.register",
                    Registration.of(self.name, self.connection_info(), self.attrs),
                    timeout=5.0, retries=retries)
                if stored:
                    return
                # The point's owner crashed and is not yet taken over: a
                # host no query can find is not registered; try the next.
                raise RpcError(f"{self.name!r}: directory owner unreachable")
            except (RpcTimeout, RpcError) as exc:
                last_exc = exc
        self.rendezvous_ip = home
        raise last_exc

    def connection_info(self) -> ConnectionInfo:
        pub_ip, pub_port = self.public_endpoint
        return ConnectionInfo(
            rendezvous_ip=self.rendezvous_ip or IPv4Address(0),
            rendezvous_port=RENDEZVOUS_PORT,
            public_ip=pub_ip,
            public_port=pub_port,
            private_ip=self.host.stack.ips[0],
            private_port=self.sock.port,
            nat_type=self.nat_type or NatType.OPEN,
            alloc_stride=self.alloc_stride,
        )

    def _rendezvous_keepalive(self):
        failures = 0
        try:
            while True:
                yield self.sim.timeout(self.keepalive_interval)
                try:
                    _, alive = yield from self.rpc.call(
                        self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.keepalive",
                        _Keepalive((self.name,)), timeout=5.0, retries=2)
                except (RpcTimeout, RpcError):
                    alive = 0  # silent, or an error reply
                if alive:
                    failures = 0
                else:  # ... or the server no longer holds the registration
                    failures += 1
                    if failures >= 2 and len(self.rendezvous_candidates) > 1:
                        ok = yield from self._failover()
                        if ok:
                            failures = 0
        except Interrupt:
            return

    def _failover(self):
        """Process: the current rendezvous went silent — re-register with
        a surviving candidate. Returns True on success."""
        t0 = self.sim.now
        old = self.rendezvous_ip
        others = [ip for ip in self.rendezvous_candidates if ip != old] or [old]
        try:
            yield from self._register_somewhere(others, retries=2)
        except (RpcTimeout, RpcError):
            return False
        self._m_rvz_failovers.add()
        self._m_rvz_failover_seconds.observe(self.sim.now - t0)
        self.sim.trace.event("rvz.failover", host=self.name,
                             old=str(old), new=str(self.rendezvous_ip),
                             seconds=round(self.sim.now - t0, 6))
        return True

    def _refresh_endpoint(self):
        """Process: re-discover this socket's public NAT mapping — it
        moves when the NAT reboots or the binding expires — and if it
        did, re-register so peers punch toward the fresh endpoint."""
        if self._stun_client is None or not self.running:
            return False
        mapped = yield from self._stun_client.discover_endpoint()
        if mapped is None or mapped == self.public_endpoint:
            return False
        old = self.public_endpoint
        self.public_endpoint = mapped
        self._m_endpoint_moves.add()
        self.sim.trace.event("endpoint.moved", host=self.name,
                             old=f"{old[0]}:{old[1]}",
                             new=f"{mapped[0]}:{mapped[1]}")
        if self.rendezvous_ip is not None:
            try:
                yield from self._register_somewhere([self.rendezvous_ip])
            except (RpcTimeout, RpcError):
                pass
        return True

    def _upgrade_loop(self):
        """Process: periodically re-punch relayed connections, hoping to
        upgrade them to a direct path (NAT state changes over time)."""
        try:
            while True:
                yield self.sim.timeout(UPGRADE_INTERVAL)
                for conn in list(self.connections.values()):
                    if conn.usable and conn.relayed and conn.peer_conn is not None:
                        conn.start_punching()
        except Interrupt:
            return

    # -- resource discovery and connection setup (Fig 3) ----------------
    def query_resources(self, limit: int = 8, **attrs):
        """Process: route a resource query through the rendezvous layer."""
        if self.rendezvous_ip is None:
            raise RuntimeError("driver has no rendezvous server")
        query = dict(self.attrs)
        query.update(attrs)
        records = yield from self.rpc.call(
            self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.query",
            (query, limit), timeout=10.0)
        return [r for r in records if r.host_name != self.name]

    def connect(self, record: ResourceRecord,
                options: Optional[ConnectOptions] = None):
        """Process: broker + punch a direct connection to ``record``'s host.
        Behaviour is controlled by a :class:`ConnectOptions` bundle:
        ``allow_relay`` (an extension beyond the paper) lets peers whose
        NATs defeat punching fall back to relaying through the rendezvous
        server; ``timeout`` overrides the punch deadline. Returns the
        established WavConnection."""
        opts = resolve_options(options, ConnectOptions, "connect")
        existing = self.connections.get(record.host_name)
        if existing is not None and existing.usable:
            return existing
        notice = yield from self.rpc.call(
            self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.connect",
            _ConnectBody(self.name, self.connection_info(), record.host_name,
                         record.conn.rendezvous_ip, record.conn.rendezvous_port),
            timeout=10.0)
        conn = self._ensure_connection(notice.peer_name, notice.peer_conn,
                                       opts.timeout)
        conn.start_punching()
        try:
            result = yield conn.wait_established()
        except TimeoutError:
            if not opts.allow_relay or self.rendezvous_ip is None:
                raise
            conn = self._ensure_connection(notice.peer_name, notice.peer_conn,
                                           opts.timeout)
            conn.establish_relayed()
            # The first relayed pulse converts the peer's side too.
            conn.send(self.assembler.pulse())
            result = conn
        return result

    def connect_by_name(self, peer_name: str,
                        options: Optional[ConnectOptions] = None):
        """Process: query then connect to the named peer."""
        opts = resolve_options(options, ConnectOptions, "connect_by_name")
        records = yield from self.query_resources(limit=64)
        for record in records:
            if record.host_name == peer_name:
                conn = yield from self.connect(record, options=opts)
                return conn
        raise RpcError(f"host {peer_name!r} not found in resource directory")

    def _on_punch_notice(self, notice: _PunchNotice, _src_ip, _src_port):
        """Rendezvous says: peer is about to punch — punch back (step 3/4)."""
        conn = self._ensure_connection(notice.peer_name, notice.peer_conn)
        conn.start_punching()
        return None

    # -- distance reporting (feeds the grouping strategy) ---------------------
    def report_latencies(self, rtts: dict[str, float]):
        """Process: report measured RTTs to the rendezvous distance locator."""
        result = yield from self.rpc.call(
            self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.latency_report",
            (self.name, dict(rtts)), timeout=5.0)
        return result

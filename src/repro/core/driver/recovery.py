"""Recovery: repair supervision and QUIC-style path migration."""

from __future__ import annotations

from repro.core.assembler import WavPathChallenge, WavPathResponse
from repro.core.connection import WavConnection
from repro.core.options import ConnectOptions
from repro.net.packet import Payload
from repro.overlay.rpc import RpcError, RpcTimeout
from repro.sim.engine import Interrupt

REPAIR_JITTER = 0.3  # repair backoff is stretched by up to this fraction
MIGRATE_TIMEOUT = 2.0  # seconds a path challenge may go unanswered


class Recovery:
    # -- repair supervision (self-healing) ------------------------------
    def _schedule_repair(self, peer_name: str) -> None:
        if peer_name in self._repairing:
            return
        self._outage_start.setdefault(peer_name, self.sim.now)
        self._repairing[peer_name] = self.sim.process(
            self._repair(peer_name), name=f"wav-repair:{self.name}->{peer_name}")

    def _repair(self, peer_name: str):
        """Process: re-punch a lost connection with exponential backoff
        plus deterministic jitter (own RNG stream, so repair randomness
        never perturbs other draws)."""
        attempts = 0
        try:
            while self.running:
                delay = min(self.repair_backoff_cap,
                            self.repair_backoff_base * (2.0 ** attempts))
                delay *= 1.0 + REPAIR_JITTER * float(self._repair_rng.random())
                yield self.sim.timeout(delay)
                if not self.running:
                    return
                conn = self.connections.get(peer_name)
                if conn is None or not conn.usable:
                    attempts += 1
                    self._m_repair_attempts.add()
                    try:
                        yield from self.connect_by_name(
                            peer_name, options=ConnectOptions(
                                allow_relay=peer_name in self._relay_peers))
                    except (RpcTimeout, RpcError, TimeoutError):
                        # The punch may have failed because our own NAT
                        # mapping moved (reboot, expiry): peers were
                        # aiming at a dead endpoint. Re-discover and
                        # re-register before the next attempt.
                        yield from self._refresh_endpoint()
                        continue  # back off further and retry
                outage = self.sim.now - self._outage_start.pop(peer_name, self.sim.now)
                self._m_repair_success.add()
                self._m_repair_seconds.observe(outage)
                self.sim.trace.event("conn.repaired", host=self.name,
                                     peer=peer_name, attempts=attempts,
                                     seconds=round(outage, 6))
                return
        except Interrupt:
            return
        finally:
            self._repairing.pop(peer_name, None)

    # -- path migration (QUIC-style, §future-work) ----------------------
    def _start_migration(self, conn: WavConnection) -> None:
        """Kick off path validation toward ``conn``'s peer (idempotent
        while one is in flight)."""
        if conn.peer_name in self._migrating or not self.running:
            return
        self._migrating.add(conn.peer_name)
        self.sim.process(self._migrate(conn),
                         name=f"wav-migrate:{self.name}->{conn.peer_name}")

    def _migrate(self, conn: WavConnection):
        """Process: re-discover our public endpoint, then challenge the
        peer on the stable connection ID until the path validates.

        The challenge travels both direct (its very transmission opens
        our fresh NAT mapping toward the peer) and relayed through the
        peer's rendezvous (guaranteed delivery — the peer cannot receive
        direct traffic from our new mapping until it has sent to it).
        On validation both sides have rebound without re-punching; on
        timeout we leave the connection to the classic liveness-death →
        re-punch repair loop.
        """
        peer = conn.peer_name
        t0 = self.sim.now
        self._m_migrate_attempts.add()
        self.sim.trace.event("conn.migrate_start", host=self.name, peer=peer)
        try:
            # Our mapping may have moved (NAT reboot) — rediscover and
            # re-register so relayed frames reach us at the new mapping.
            yield from self._refresh_endpoint()
            if not self.running or not conn.usable or conn.relayed:
                return
            self._migrate_token += 1
            token = self._migrate_token
            conn._path_token = token
            body = WavPathChallenge(self.name, conn.cid, token,
                                    self.public_endpoint[0],
                                    self.public_endpoint[1])
            payload = Payload(body.size, data=body, kind="wav")
            deadline = self.sim.now + MIGRATE_TIMEOUT
            while (self.sim.now < deadline and conn._path_token == token
                   and conn.usable):
                if conn.remote is not None:
                    self._send_raw(conn.remote, payload)
                self._send_via_peer_rendezvous(conn, payload)
                yield self.sim.timeout(0.25)
            if conn._path_token == token:
                conn._path_token = None
                self._m_migrate_failed.add()
                self.sim.trace.event("conn.migrate_failed", host=self.name,
                                     peer=peer)
                return
            self._m_migrate_success.add()
            self._m_migrate_seconds.observe(self.sim.now - t0)
            self.sim.trace.event("conn.migrated", host=self.name, peer=peer,
                                 seconds=round(self.sim.now - t0, 6))
        except Interrupt:
            return
        finally:
            self._migrating.discard(peer)

    def _on_path_frame(self, body, src) -> None:
        """A path-validation frame, direct or relayed. On a challenge the
        peer validates its (possibly new) path: adopt the claimed endpoint
        and echo the token both direct and relayed."""
        conn = self._by_cid.get(body.cid)
        if conn is None or conn.peer_name != body.sender:
            return
        if isinstance(body, WavPathResponse):
            if conn._path_token == body.token:
                conn._path_token = None
                conn.migrations += 1
                conn.last_heard = self.sim.now
            return
        if not conn.usable or conn.relayed:
            return  # a relayed data path has no direct path to migrate
        new_remote = (body.new_ip, body.new_port)
        if conn.remote != new_remote:
            if self._by_endpoint.get(conn.remote) is conn:
                del self._by_endpoint[conn.remote]
            conn.remote = new_remote
            self._by_endpoint[new_remote] = conn
            self._m_peer_moved.add()
            self.sim.trace.event("conn.peer_moved", host=self.name,
                                 peer=conn.peer_name,
                                 remote=f"{new_remote[0]}:{new_remote[1]}")
        conn.last_heard = self.sim.now
        resp = WavPathResponse(self.name, body.cid, body.token)
        payload = Payload(resp.size, data=resp, kind="wav")
        # Direct reply doubles as the outbound traffic that opens our own
        # NAT filter toward the peer's new endpoint.
        self._send_raw(new_remote, payload)
        self._send_via_peer_rendezvous(conn, payload)

    def _send_via_peer_rendezvous(self, conn: WavConnection,
                                  payload: Payload) -> None:
        """Relay a path-validation frame through the *peer's* rendezvous
        (ours when the peer's is unknown) — guaranteed delivery while
        the direct path is being re-validated."""
        via = None
        if conn.peer_conn is not None and conn.peer_conn.rendezvous_ip.value:
            via = (conn.peer_conn.rendezvous_ip, conn.peer_conn.rendezvous_port)
        if via is not None or self.rendezvous_ip is not None:
            self._send_relayed(conn.peer_name, payload, via=via)

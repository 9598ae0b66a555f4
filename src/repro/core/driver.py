"""WavnetDriver: the per-host WAVNet entry point.

Downloading "the WAVNet driver, which is already configured with
well-known rendezvous server(s)" (§II.B) corresponds to constructing a
:class:`WavnetDriver` and running :meth:`start`. The driver owns:

* one UDP socket (``WAV_PORT``) carrying *everything* — STUN probes,
  rendezvous RPC, hole-punch probes, CONNECT_PULSE, and tunneled frames —
  so one NAT mapping covers control and data;
* the software bridge, tap device, WAV-Switch, and Packet Assembler;
* a ``wav0`` virtual interface giving the host itself an address on the
  virtual LAN;
* the connection table (peer name -> :class:`WavConnection`).

After :meth:`start`, the host appears on a virtual Ethernet segment
shared with every peer it connects to; VMs are plugged into the same
segment via :meth:`attach_port` (used by the hypervisor's vif plumbing).
"""

from __future__ import annotations

from typing import Optional

from repro.core.assembler import (PacketAssembler, WavData, WavPathChallenge,
                                  WavPathResponse, WavPulse, WavPunch,
                                  WavPunchAck, WavRelay)
from repro.core.connection import ConnectionState, WavConnection
from repro.core.options import ConnectOptions, TransferOptions, resolve_options
from repro.core.switch import WavSwitch
from repro.core.tap import TapDevice
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.l2 import Bridge, Port, patch
from repro.net.packet import EthernetFrame, Payload
from repro.net.stack import Host, Interface
from repro.overlay.rendezvous import RENDEZVOUS_PORT, _ConnectBody, _PunchNotice, _RegisterBody
from repro.overlay.resources import ConnectionInfo, ResourceRecord
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.sim.engine import Event, Interrupt
from repro.sim.lifecycle import Component
from repro.stun.client import StunClient
from repro.stun.messages import StunResponse

__all__ = ["WavnetDriver", "WAV_PORT", "VIRTUAL_NETWORK"]

WAV_PORT = 8777
VIRTUAL_NETWORK = IPv4Network("10.99.0.0/16")  # the one virtual LAN
REPAIR_JITTER = 0.3  # repair backoff is stretched by up to this fraction
UPGRADE_INTERVAL = 30.0  # seconds between relay->direct upgrade attempts
MIGRATE_TIMEOUT = 2.0  # seconds a path challenge may go unanswered


class WavnetDriver(Component):
    """WAVNet on one host.

    As a lifecycle :class:`~repro.sim.lifecycle.Component` (kind
    ``driver``): ``stop``/``crash`` close every tunnel, halt the
    keepalive loop, close the socket and take the tap down;
    ``restore`` rebinds, brings the tap back up and re-runs
    :meth:`start` (STUN, registration, keepalive) from scratch — peers
    notice the death through CONNECT_PULSE silence and their repair
    supervision re-punches to us.

    The driver also *self-heals*: connections that die of keepalive
    silence are re-punched with exponential backoff plus jitter,
    relayed connections periodically attempt a relay->direct upgrade,
    and registration fails over to a backup rendezvous server when the
    primary stops answering keepalives.
    """

    def __init__(
        self,
        host: Host,
        virtual_ip: IPv4Address | str,
        rendezvous_ip: IPv4Address | str | None = None,
        stun_server_ip: IPv4Address | str | None = None,
        pulse_interval: float = 5.0,
        punch_timeout: float = 10.0,
        keepalive_interval: float = 20.0,
        attrs: Optional[dict] = None,
        name: Optional[str] = None,
        backup_rendezvous_ips: Optional[list] = None,
        repair_backoff_base: float = 1.0,
        repair_backoff_cap: float = 30.0,
        predict_ports: bool = True,
        punch_fan: int = 8,
        migration: bool = False,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.name = name or host.name
        Component.__init__(self, host.sim, "driver", self.name)
        self.virtual_ip = IPv4Address(virtual_ip)
        self.rendezvous_ip = IPv4Address(rendezvous_ip) if rendezvous_ip else None
        self.rendezvous_candidates: list[IPv4Address] = []
        if self.rendezvous_ip is not None:
            self.rendezvous_candidates.append(self.rendezvous_ip)
        for ip in backup_rendezvous_ips or []:
            ip = IPv4Address(ip)
            if ip not in self.rendezvous_candidates:
                self.rendezvous_candidates.append(ip)
        self.stun_server_ip = IPv4Address(stun_server_ip) if stun_server_ip else None
        self.pulse_interval = pulse_interval
        self.punch_timeout = punch_timeout
        self.keepalive_interval = keepalive_interval
        self.repair_backoff_base = repair_backoff_base
        self.repair_backoff_cap = repair_backoff_cap
        # Traversal/migration behaviour of every connection this driver
        # makes. Migration is opt-in: enabling it changes repair
        # dynamics, and scenarios that measured the classic re-punch loop
        # must keep measuring it unless they ask for migration.
        self.predict_ports = predict_ports
        self.punch_fan = punch_fan
        self.migration = migration
        self.attrs = dict(attrs or {"cpu_ghz": 2.0, "mem_mb": 2048.0})

        # --- data-plane plumbing (Fig 2 / Fig 5) ---
        self.bridge = Bridge(self.sim, name=f"{self.name}.br0")
        self.tap = TapDevice(self.sim, name=f"{self.name}.tap0")
        patch(self.tap.port, self.bridge.new_port(f"{self.name}.br0.tap"))
        self.tap.capture_handler = self._on_captured_frame
        self.assembler = PacketAssembler()
        self.switch = WavSwitch(self.name)

        # Host's own presence on the virtual LAN.
        self.wav_iface: Interface = host.stack.add_interface("wav0", host.mac_mint())
        self.wav_iface.configure(self.virtual_ip, VIRTUAL_NETWORK)
        host.stack.connected_route_for(self.wav_iface)
        patch(self.wav_iface.port, self.bridge.new_port(f"{self.name}.br0.wav0"))

        # --- observability (dotted paths under "<host>.driver.*") ---
        self.metrics = self.sim.metrics.scope(f"{self.name}.driver")
        m = self.metrics
        self._m_frames_tx = m.counter("frames.tx")
        self._m_frames_rx = m.counter("frames.rx")
        self._m_bytes_tx = m.counter("bytes.tx")
        self._m_bytes_rx = m.counter("bytes.rx")
        self._m_pulse_tx = m.counter("pulse.tx")
        self._m_pulse_rx = m.counter("pulse.rx")
        self._m_punch_tx = m.counter("punch.tx")
        self._m_punch_rx = m.counter("punch.rx")
        self._m_punch_ack_rx = m.counter("punch.ack_rx")
        self._m_relay_tx = m.counter("relay.tx")
        self._m_relay_rx = m.counter("relay.rx")
        self._m_established = m.counter("connect.established")
        self._m_relayed = m.counter("connect.relayed")
        self._m_upgraded = m.counter("connect.upgraded")
        self._m_punch_failed = m.counter("connect.punch_failed")
        self._m_punch_seconds = m.histogram("connect.punch_seconds")
        # --- recovery observability ---
        self._m_conn_lost = m.counter("repair.lost")
        self._m_repair_attempts = m.counter("repair.attempts")
        self._m_repair_success = m.counter("repair.success")
        self._m_repair_seconds = m.histogram("repair.seconds")
        self._m_endpoint_moves = m.counter("repair.endpoint_moves")
        self._m_rvz_failovers = m.counter("rvz.failovers")
        self._m_rvz_failover_seconds = m.histogram("rvz.failover_seconds")
        self._m_dropped_outage = m.counter("frames.dropped_outage")
        # --- path migration observability ---
        self._m_migrate_attempts = m.counter("migrate.attempts")
        self._m_migrate_success = m.counter("migrate.success")
        self._m_migrate_failed = m.counter("migrate.failed")
        self._m_migrate_seconds = m.histogram("migrate.seconds")
        self._m_peer_moved = m.counter("migrate.peer_moved")

        # --- control plane ---
        self.sock = self._bind()
        self.rpc = RpcEndpoint(host.stack, self.sock, name=f"wav:{self.name}")
        self.rpc.register("wav.punch", self._on_punch_notice)
        self.connections: dict[str, WavConnection] = {}
        self._by_endpoint: dict[tuple[IPv4Address, int], WavConnection] = {}
        # Established connections by stable connection ID: path-validation
        # frames demux here, independent of the sending address.
        self._by_cid: dict[int, WavConnection] = {}
        self._migrating: set[str] = set()
        self._migrate_token = 0
        self.nat_type: Optional[NatType] = None
        self.alloc_stride = 0  # STUN-inferred symmetric allocation stride
        self.public_endpoint: Optional[tuple[IPv4Address, int]] = None
        self.started = Event(self.sim)
        self._stun_client: Optional[StunClient] = None
        self._keepalive_proc = None
        self._upgrade_proc = None
        # --- repair supervision (self-healing) ---
        self._repair_rng = self.sim.rng.stream(f"driver.repair.{self.name}")
        self._repairing: dict[str, object] = {}  # peer -> repair Process
        self._outage_start: dict[str, float] = {}
        # Peers whose tunnel ran relayed: repair may fall back to relay
        # for these; for direct-capable peers a punch timeout means the
        # peer is still gone (relaying would fake a live tunnel).
        self._relay_peers: set[str] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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

    def _register(self, retries: int = 3):
        """Process: one ``rvz.register`` call to the current
        ``rendezvous_ip`` (``connection_info()`` embeds it, so callers
        trying another candidate set it first)."""
        result = yield from self.rpc.call(
            self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.register",
            _RegisterBody(self.name, self.connection_info(), dict(self.attrs)),
            timeout=5.0, retries=retries)
        return result

    def _register_somewhere(self, candidates=None, retries: int = 3):
        """Process: register with the first answering rendezvous
        candidate (by default primary first, then backups). If none
        answers, ``rendezvous_ip`` is put back and the last error raised."""
        home = self.rendezvous_ip
        for ip in candidates or self.rendezvous_candidates:
            self.rendezvous_ip = ip
            try:
                yield from self._register(retries)
                return
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
                    yield from self.rpc.call(
                        self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.keepalive",
                        self.name, timeout=5.0, retries=2)
                    failures = 0
                except (RpcTimeout, RpcError):
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
                yield from self._register()
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

    # -- lifecycle hooks (Component) -----------------------------------
    def _on_stop(self) -> None:
        self.sim.trace.event("driver.stop", host=self.name,
                             connections=len(self.connections))
        for conn in list(self.connections.values()):
            conn.close()
        self._cancel_repairs()
        for proc in (self._keepalive_proc, self._upgrade_proc):
            if proc is not None and proc.is_alive:
                proc.interrupt("stopped")
                proc.defuse()
        self._keepalive_proc = self._upgrade_proc = None
        self._stun_client = None  # bound to the socket we are closing
        self.sock.close()
        self.connections.clear()
        self._by_endpoint.clear()
        self._by_cid.clear()
        self._migrating.clear()
        self.tap.up = False

    def _on_restore(self) -> None:
        self.sock = self._bind()
        self.rpc.rebind(self.sock)
        self.tap.up = True
        self.started = Event(self.sim)
        self.sim.process(self.start(), name=f"wav-restart:{self.name}")

    def _bind(self):
        sock = self.host.udp.bind(WAV_PORT)
        sock.handler = self._on_datagram
        return sock

    def _cancel_repairs(self) -> None:
        for proc in list(self._repairing.values()):
            if proc.is_alive:
                proc.interrupt("stopped")
                proc.defuse()
        self._repairing.clear()
        self._outage_start.clear()

    # ------------------------------------------------------------------
    # Resource discovery and connection setup (Fig 3)
    # ------------------------------------------------------------------
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
                        options: Optional[ConnectOptions] = None, **attrs):
        """Process: query then connect to the named peer."""
        opts = resolve_options(options, ConnectOptions, "connect_by_name")
        records = yield from self.query_resources(limit=64, **attrs)
        for record in records:
            if record.host_name == peer_name:
                conn = yield from self.connect(record, options=opts)
                return conn
        raise RpcError(f"host {peer_name!r} not found in resource directory")

    def _ensure_connection(self, peer_name: str,
                           peer_conn: Optional[ConnectionInfo],
                           punch_timeout: Optional[float] = None) -> WavConnection:
        conn = self.connections.get(peer_name)
        if conn is None or conn.state is ConnectionState.DEAD:
            conn = WavConnection(self, peer_name, peer_conn,
                                 punch_timeout or self.punch_timeout)
            self.connections[peer_name] = conn
        elif peer_conn is not None and conn.peer_conn is None:
            conn.peer_conn = peer_conn
        return conn

    def _on_punch_notice(self, notice: _PunchNotice, _src_ip, _src_port):
        """Rendezvous says: peer is about to punch — punch back (step 3/4)."""
        conn = self._ensure_connection(notice.peer_name, notice.peer_conn)
        conn.start_punching()
        return None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def attach_port(self, port: Port, label: str = "vif") -> None:
        """Plug an external L2 port (a VM's vif) into the bridge."""
        patch(port, self.bridge.new_port(f"{self.name}.br0.{label}"))

    def open_transfer(self, dst_ip, nbytes: int,
                      options: Optional[TransferOptions] = None, **kwargs):
        """Process: one bulk transfer to a virtual IP, at either
        fidelity, behind one API. ``TransferOptions.fidelity="packet"``
        runs a real ttcp over the tunnel (every frame simulated);
        ``"fluid"`` rides the flow-level plane (requires a FluidNetwork
        with a registered route for this host). ``cc`` names a
        registered congestion-control algorithm for the transfer
        (``None`` = host stack default). Returns the app-level
        TtcpResult."""
        from repro.apps.ttcp import ttcp_transfer

        opts = resolve_options(options, TransferOptions, "open_transfer")
        result = yield from ttcp_transfer(self.host, dst_ip, nbytes,
                                          options=opts, **kwargs)
        return result

    def _notify_fluid_conduit(self, peer_name: str, up: bool) -> None:
        """Tell the fluid plane (if any) that the WAV tunnel between
        this driver and ``peer_name`` changed state, so fluid flows
        riding it stall/resume with the tunnel."""
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.set_conduit((self.name, peer_name), up)

    def _on_captured_frame(self, frame: EthernetFrame) -> None:
        """Frame left the bridge through the tap: tunnel it."""
        sent = False
        for conn in self.switch.select(frame, self.connections.values()):
            conn.send(self.assembler.encapsulate(frame))
            sent = True
        if not sent:
            # No usable tunnel toward this destination — a frame lost
            # during an outage (or before the first connect).
            self._m_dropped_outage.add()

    def _send_raw(self, endpoint: tuple[IPv4Address, int], payload: Payload) -> None:
        self.sock.sendto(endpoint[0], endpoint[1], payload)

    def _send_relayed(self, peer_name: str, payload: Payload,
                      via: Optional[tuple[IPv4Address, int]] = None) -> None:
        """Relay through a rendezvous server — ours by default, or
        ``via`` (e.g. the *peer's* rendezvous, which is the one that
        knows the peer's reach endpoint in multi-server deployments)."""
        self._m_relay_tx.add()
        wrapped = WavRelay(self.name, peer_name, payload.data)
        dst = via or (self.rendezvous_ip, RENDEZVOUS_PORT)
        self.sock.sendto(dst[0], dst[1],
                         Payload(wrapped.size, data=wrapped, kind="wav"))

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

    def _on_datagram(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        """Demultiplex the one socket: tunnel frames, keepalives, punch
        and path-validation probes, STUN replies, and RPC."""
        src = (src_ip, src_port)
        body = payload.data
        if isinstance(body, WavData):
            conn = self._by_endpoint.get(src)
            if conn is None:
                return  # tunnel data from an unknown endpoint
            conn.on_data(payload.size)
            frame = self.assembler.decapsulate(payload)
            self.switch.learn(frame.src, conn)
            self.tap.inject(frame)
        elif isinstance(body, WavPulse):
            conn = self._by_endpoint.get(src)
            if conn is not None:
                conn.on_pulse()
        elif isinstance(body, WavPunch):
            conn = self._ensure_connection(body.sender, None)
            conn.on_punch(src, body.nonce)
        elif isinstance(body, WavPunchAck):
            conn = self.connections.get(body.sender)
            if conn is not None:
                conn.on_punch_ack(src)
        elif isinstance(body, WavPathChallenge):
            self._on_path_challenge(body, src)
        elif isinstance(body, WavPathResponse):
            self._on_path_response(body)
        elif isinstance(body, WavRelay):
            self._on_relayed(body, src)
        elif isinstance(body, StunResponse):
            if self._stun_client is not None:
                self._stun_client.on_datagram(payload, src_ip, src_port)
        else:
            self.rpc.handle_datagram(payload, src_ip, src_port)

    def _on_relayed(self, body: WavRelay, src) -> None:
        self._m_relay_rx.add()
        inner = body.inner
        # Path-validation frames ride the relay for guaranteed delivery
        # during migration; they must not flip the connection into
        # relayed mode.
        if isinstance(inner, WavPathChallenge):
            self._on_path_challenge(inner, src)
            return
        if isinstance(inner, WavPathResponse):
            self._on_path_response(inner)
            return
        conn = self._ensure_connection(body.sender, None)
        if not conn.usable:
            conn.establish_relayed()
        if isinstance(inner, WavData):
            conn.on_data(body.size)
            self.switch.learn(inner.frame.src, conn)
            self.tap.inject(inner.frame)
        elif isinstance(inner, WavPulse):
            conn.on_pulse()

    # -- connection table callbacks -------------------------------------------
    def _connection_established(self, conn: WavConnection) -> None:
        if conn.relayed:  # relayed conns demux by sender name instead
            self._relay_peers.add(conn.peer_name)
        else:
            self._relay_peers.discard(conn.peer_name)
            self._by_endpoint[conn.remote] = conn
        self._by_cid[conn.cid] = conn
        self._notify_fluid_conduit(conn.peer_name, up=True)

    def _connection_dead(self, conn: WavConnection, reason: str = "closed") -> None:
        self.switch.forget_connection(conn)
        if conn.remote is not None and self._by_endpoint.get(conn.remote) is conn:
            del self._by_endpoint[conn.remote]
        if self._by_cid.get(conn.cid) is conn:
            del self._by_cid[conn.cid]
        if self.connections.get(conn.peer_name) is conn:
            del self.connections[conn.peer_name]
        self._notify_fluid_conduit(conn.peer_name, up=False)
        if reason == "liveness":
            # Keepalive silence: the peer (or the path) died under us.
            # Punch-timeout deaths are handled by connect()'s relay
            # fallback, and closed means we meant it — only liveness
            # deaths get repair supervision.
            self._m_conn_lost.add()
            self.sim.trace.event("conn.lost", host=self.name,
                                 peer=conn.peer_name, reason=reason)
            if self.running and self.rendezvous_ip is not None:
                self._schedule_repair(conn.peer_name)

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

    def _on_path_challenge(self, body: WavPathChallenge, src) -> None:
        """Peer validates its (possibly new) path: adopt the claimed
        endpoint, echo the token both direct and relayed."""
        conn = self._by_cid.get(body.cid)
        if conn is None or conn.peer_name != body.sender or not conn.usable:
            return
        if conn.relayed:
            return  # relayed data path has no direct path to migrate
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

    def _on_path_response(self, body: WavPathResponse) -> None:
        conn = self._by_cid.get(body.cid)
        if conn is None or conn.peer_name != body.sender:
            return
        if conn._path_token == body.token:
            conn._path_token = None
            conn.migrations += 1
            conn.last_heard = self.sim.now

    # -- distance reporting (feeds the grouping strategy) ---------------------
    def report_latencies(self, rtts: dict[str, float]):
        """Process: report measured RTTs to the rendezvous distance locator."""
        result = yield from self.rpc.call(
            self.rendezvous_ip, RENDEZVOUS_PORT, "rvz.latency_report",
            (self.name, dict(rtts)), timeout=5.0)
        return result

    def __repr__(self) -> str:
        return f"WavnetDriver({self.name}, vip={self.virtual_ip}, conns={len(self.connections)})"

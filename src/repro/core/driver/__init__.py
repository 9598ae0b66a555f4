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
Its seams are mixins: the rendezvous client (:mod:`.client`), repair
and path migration (:mod:`.recovery`), the datagram demux (:mod:`.demux`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.assembler import PacketAssembler
from repro.core.connection import ConnectionState, WavConnection
from repro.core.driver.client import RendezvousClient
from repro.core.driver.demux import Demux
from repro.core.driver.recovery import Recovery
from repro.core.switch import WavSwitch
from repro.core.tap import TapDevice
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.l2 import Bridge, Port, patch
from repro.net.stack import Host, Interface
from repro.overlay.resources import ConnectionInfo
from repro.overlay.rpc import RpcEndpoint
from repro.sim.engine import Event
from repro.sim.lifecycle import Component
from repro.stun.client import StunClient

__all__ = ["WavnetDriver", "WAV_PORT", "VIRTUAL_NETWORK"]

WAV_PORT = 8777
VIRTUAL_NETWORK = IPv4Network("10.99.0.0/16")  # the one virtual LAN


class WavnetDriver(RendezvousClient, Recovery, Demux, Component):
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

    # -- lifecycle hooks (Component) -----------------------------------
    def _on_stop(self) -> None:
        self.sim.trace.event("driver.stop", host=self.name,
                             connections=len(self.connections))
        for conn in list(self.connections.values()):
            conn.close()
        # Repair processes first, then the keepalive and upgrade loops.
        for proc in (*self._repairing.values(), self._keepalive_proc, self._upgrade_proc):
            if proc is not None and proc.is_alive:
                proc.interrupt("stopped")
                proc.defuse()
        self._repairing.clear()
        self._outage_start.clear()
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

    # ------------------------------------------------------------------
    # Connection table
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def attach_port(self, port: Port, label: str = "vif") -> None:
        """Plug an external L2 port (a VM's vif) into the bridge."""
        patch(port, self.bridge.new_port(f"{self.name}.br0.{label}"))

    def _notify_fluid_conduit(self, peer_name: str, up: bool) -> None:
        """Tell the fluid plane (if any) that the WAV tunnel between
        this driver and ``peer_name`` changed state, so fluid flows
        riding it stall/resume with the tunnel."""
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.set_conduit((self.name, peer_name), up)

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

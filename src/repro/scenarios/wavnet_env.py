"""Complete WAVNet deployments: cloud, STUN, rendezvous layer, hosts.

:class:`WavnetEnvironment` assembles everything a WAVNet experiment
needs and exposes the knobs the paper's evaluation varies: NAT types,
site latencies/bandwidths, number of hosts, keepalive period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.driver import VIRTUAL_NETWORK, WavnetDriver
from repro.core.hoststate import HostTable
from repro.exp.spec import scenario
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.overlay.fleet import HashRing
from repro.overlay.rendezvous import RendezvousServer
from repro.scenarios.builder import NattedSite, make_natted_site, make_public_host
from repro.sim.engine import Simulator
from repro.stun.server import PRIMARY_IP as STUN_PRIMARY_IP
from repro.stun.server import StunServerPair

__all__ = ["WavnetEnvironment", "WavnetHost", "wavnet_mesh"]

# What add_host accepts about the site itself, with the
# defaults; any other keyword goes to the WavnetDriver constructor.
SITE_DEFAULTS = dict(
    nat_type="port-restricted", access_bandwidth_bps=100e6,
    access_latency=0.0005, udp_timeout=60.0, attrs=None, pulse_interval=5.0,
    public=False, tcp_mss=1460, tcp_send_buf=262144, tcp_recv_buf=262144,
    cpu_factor=1.0)


@dataclass
class WavnetHost:
    """One desktop host participating in WAVNet."""

    host: Host
    driver: WavnetDriver
    site: Optional[NattedSite] = None

    @property
    def name(self) -> str:
        return self.driver.name

    @property
    def virtual_ip(self) -> IPv4Address:
        return self.driver.virtual_ip


class WavnetEnvironment:
    """A WAN with STUN + rendezvous infrastructure and WAVNet hosts."""

    def __init__(self, sim: Simulator, default_latency: float = 0.025,
                 n_rendezvous: int = 1,
                 admission_rate: Optional[float] = None,
                 admission_burst: Optional[float] = None,
                 replication_factor: Optional[int] = None,
                 hot_zone_limit: Optional[int] = None) -> None:
        self.sim = sim
        self.cloud = WanCloud(sim, default_latency=default_latency)
        self.n_rendezvous = n_rendezvous
        self.rendezvous: list[RendezvousServer] = []
        self.hosts: dict[str, WavnetHost] = {}
        self._next_vip = 1
        self._next_pub = 1
        # The fleet assignment: pure name hashing over the server names.
        self.ring = HashRing([f"rvz{i}" for i in range(n_rendezvous)])
        # Single source of truth for every registered endpoint; the
        # rendezvous servers all own slices of it (fleet sharding).
        self.table = HostTable(sim)
        self.stun = StunServerPair(sim, self.cloud)
        for i in range(n_rendezvous):
            rhost = make_public_host(sim, self.cloud, f"rvz{i}", f"9.1.0.{i + 1}",
                                     network="9.1.0.0/24")
            server = RendezvousServer(rhost, self.table, server_index=i,
                                      admission_rate=admission_rate,
                                      admission_burst=admission_burst,
                                      replication_factor=replication_factor,
                                      hot_zone_limit=hot_zone_limit)
            if i == 0:
                server.bootstrap()
            self.rendezvous.append(server)

    def join_rendezvous_overlay(self):
        """Process: join all non-bootstrap rendezvous nodes into the CAN
        (servers already in the overlay are left alone)."""
        for server in self.rendezvous[1:]:
            if not server.can.joined:
                yield self.sim.process(server.join_via(self.rendezvous[0]))

    def _alloc_vip(self) -> IPv4Address:
        vip = VIRTUAL_NETWORK.host(self._next_vip)
        self._next_vip += 1
        return vip

    # -- fleet addressing ----------------------------------------------
    def rendezvous_addr(self, index: int) -> IPv4Address:
        """IP of rendezvous server ``index``."""
        if not 0 <= index < self.n_rendezvous:
            raise IndexError(f"rendezvous index {index} out of range")
        return self.rendezvous[index].ip

    def assign_rendezvous(self, name: str) -> int:
        """Fleet consistent-hash assignment for an endpoint name."""
        return self.ring.index(name)

    def fleet_load(self) -> dict:
        """Refresh the ``rvz.fleet.load.<server>`` / ``servers_up``
        gauges from the table's owner column; returns {server_name:
        registered endpoints}."""
        metrics = self.sim.metrics.scope("rvz.fleet")
        loads = {}
        for server in self.rendezvous:
            n = len(self.table.registered_ids(owner=server.server_index))
            loads[server.host.name] = n
            metrics.gauge(f"load.{server.host.name}").set(n)
        up = sum(1 for server in self.rendezvous if server.running)
        metrics.gauge("servers_up").set(up)
        self.sim.trace.event("rvz.fleet.load", servers_up=up,
                             max_load=max(loads.values(), default=0),
                             min_load=min(loads.values(), default=0))
        return loads

    def add_host(self, name: str, rendezvous_index: Optional[int] = None,
                 **site_config) -> WavnetHost:
        """Add one desktop host (behind its own NAT unless ``public``):
        reserve its directory row, stable virtual IP and public-address
        slot, then construct (without starting) its full
        host/NAT/driver stack.

        ``site_config`` takes the :data:`SITE_DEFAULTS` keys; anything
        else is a ``WavnetDriver`` keyword. ``nat_type`` accepts combined
        specs like ``"symmetric-sequential"`` naming the NAT's
        port-allocation policy.

        ``rendezvous_index=None`` hashes the host onto the fleet ring
        (:attr:`ring`); an integer pins it to that server. The churn and
        storm scenarios pin round-robin on purpose: the ring puts both
        of ``registration_storm``'s punch hosts ``p0``/``p1`` on
        ``rvz1`` (so no cross-server brokering would run) and three of
        ``churn_recovery``'s default four hosts on one server, while
        failover needs every server to hold at least one host.
        """
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host_id = int(self.table.ensure_rows((name,))[0])
        fleet_assigned = rendezvous_index is None
        if fleet_assigned:
            rendezvous_index = self.ring.index(name)
        if not 0 <= rendezvous_index < self.n_rendezvous:
            raise IndexError(f"rendezvous_index {rendezvous_index} out of range")
        pub_index = self._next_pub
        self._next_pub += 1
        vip = self._alloc_vip()
        self.table.virtual_ip[host_id] = vip.value
        cfg = dict(SITE_DEFAULTS)
        driver_kwargs = {k: v for k, v in site_config.items() if k not in cfg}
        cfg.update({k: v for k, v in site_config.items() if k in cfg})
        rendezvous_ip = self.rendezvous_addr(rendezvous_index)
        stack_kwargs = dict(tcp_mss=cfg["tcp_mss"],
                            tcp_send_buf=cfg["tcp_send_buf"],
                            tcp_recv_buf=cfg["tcp_recv_buf"],
                            cpu_factor=cfg["cpu_factor"])
        if cfg["public"]:
            host = make_public_host(self.sim, self.cloud, name,
                                    f"8.2.{pub_index // 250}.{(pub_index % 250) + 1}",
                                    network="8.0.0.0/8",
                                    access_latency=cfg["access_latency"],
                                    access_bandwidth_bps=cfg["access_bandwidth_bps"],
                                    **stack_kwargs)
            site = None
        else:
            subnet_octet = 1 + (pub_index % 254)
            site = make_natted_site(
                self.sim, self.cloud, name,
                f"8.3.{pub_index // 250}.{(pub_index % 250) + 1}",
                nat_type=cfg["nat_type"],
                lan_subnet=f"192.168.{subnet_octet}.0/24",
                access_bandwidth_bps=cfg["access_bandwidth_bps"],
                access_latency=cfg["access_latency"],
                udp_timeout=cfg["udp_timeout"],
                **stack_kwargs)
            host = site.hosts[0]
        # Every other rendezvous server is a registration failover
        # target: fleet-assigned endpoints fail over in ring-successor
        # order (the server that inherits their ring arc), pinned ones
        # in index order.
        if fleet_assigned:
            backups = [self.rendezvous_addr(j)
                       for j in self.ring.order(name)[1:]]
        else:
            backups = [self.rendezvous_addr(j)
                       for j in range(self.n_rendezvous)
                       if j != rendezvous_index]
        driver_kwargs.setdefault("backup_rendezvous_ips", backups)
        driver = WavnetDriver(
            host,
            virtual_ip=vip,
            rendezvous_ip=rendezvous_ip,
            stun_server_ip=STUN_PRIMARY_IP,
            attrs=cfg["attrs"],
            name=name,
            pulse_interval=cfg["pulse_interval"],
            **driver_kwargs,
        )
        wav_host = WavnetHost(host=host, driver=driver, site=site)
        self.hosts[wav_host.name] = wav_host
        return wav_host

    def set_site_rtt(self, a: str, b: str, rtt: float) -> None:
        """Pairwise RTT between two host sites over the cloud."""
        self.cloud.set_rtt(a, b, rtt)

    # -- conveniences (run the simulator themselves) -------------------
    def up(self) -> "WavnetEnvironment":
        """Bring the deployment up: join extra rendezvous servers into
        the CAN, then start every driver. Runs the simulator; returns
        self so ``env.up().connect(...)`` chains."""
        if len(self.rendezvous) > 1:
            self.sim.run_coro(self.join_rendezvous_overlay())
        self.sim.run_coro(self.start_all())
        return self

    def connect(self, *pairs):
        """Punch tunnels and return the connections (runs the simulator).

        * ``env.connect("a", "b")`` — one pair, returns its connection;
        * ``env.connect(("a", "b"), ("a", "c"))`` — returns a list;
        * ``env.connect()`` — full mesh over all hosts, returns a list.
        """
        if len(pairs) == 2 and all(isinstance(p, str) for p in pairs):
            return self.sim.run_coro(self.connect_pair(*pairs))
        if not pairs:
            return self.sim.run_coro(self.connect_full_mesh())
        return [self.sim.run_coro(self.connect_pair(a, b)) for a, b in pairs]

    def start_all(self):
        """Process: start every driver (STUN + registration), serially to
        keep rendezvous registration deterministic."""
        for wav_host in self.hosts.values():
            yield self.sim.process(wav_host.driver.start())

    def connect_pair(self, a: str, b: str):
        """Process: host ``a`` discovers and punches to host ``b``."""
        driver = self.hosts[a].driver
        conn = yield from driver.connect_by_name(b)
        return conn

    def connect_full_mesh(self, names: Optional[list[str]] = None):
        """Process: pairwise connections among ``names`` (default: all);
        returns the connections in pair order."""
        names = names or list(self.hosts)
        conns = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                conn = yield self.sim.process(self.connect_pair(a, b))
                conns.append(conn)
        return conns


@scenario("wavnet_mesh")
def wavnet_mesh(seed: int = 0, n_hosts: int = 2, n_rendezvous: int = 1,
                nat_type: str = "port-restricted", rtt: float = 0.05,
                settle: float = 0.0):
    """Bring up a full-mesh WAVNet deployment and report how it punched:
    the baseline scenario for sweeping NAT types, host counts, and WAN
    RTTs through the experiment plane."""
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, default_latency=rtt / 2.0,
                            n_rendezvous=n_rendezvous)
    for i in range(n_hosts):
        env.add_host(f"m{i}", nat_type=nat_type)
    conns = env.up().connect()
    if settle > 0:
        sim.run(until=sim.now + settle)
    punch = [c.established_at for c in conns]
    payload = {
        "n_hosts": n_hosts,
        "nat_type": nat_type,
        "connections": len(conns),
        "relayed": sum(1 for c in conns if c.relayed),
        "punch_done_at": punch,
        "mesh_done_at": max(punch) if punch else None,
    }
    return sim, payload


# The keepalive ablation: NAT UDP bindings expire after this long, and
# the tunnel idles this long before it is probed.
KEEPALIVE_NAT_TIMEOUT = 60.0
KEEPALIVE_IDLE = 600.0


@scenario("wavnet_keepalive")
def wavnet_keepalive(seed: int = 0, pulse_interval: float = 5.0):
    """One punched tunnel left idle behind NATs whose UDP bindings
    expire, kept alive by CONNECT_PULSE every ``pulse_interval`` s alone
    (the keepalive ablation). Reports whether the connection is still
    usable, whether three pings cross it afterwards, and the pulse
    overhead in B/s."""
    from repro.apps.ping import Pinger

    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, default_latency=0.020)
    for name in ("a", "b"):
        # Rendezvous keepalives ride the same socket and would refresh an
        # endpoint-independent NAT mapping on their own; park them beyond
        # the experiment so CONNECT_PULSE is the only refresher.
        env.add_host(name, udp_timeout=KEEPALIVE_NAT_TIMEOUT,
                     pulse_interval=pulse_interval,
                     keepalive_interval=10 * KEEPALIVE_IDLE)
    conn = env.up().connect("a", "b")
    t0, sent0 = sim.now, conn.bytes_sent
    sim.run(until=t0 + KEEPALIVE_IDLE)
    payload = {"usable": conn.usable, "alive": False,
               "overhead_bps": (conn.bytes_sent - sent0) / KEEPALIVE_IDLE}
    if conn.usable:
        ping = sim.run_coro(Pinger(env.hosts["a"].host.stack, env.hosts["b"].virtual_ip,
                                   interval=0.3, timeout=2.0).run(3))
        payload["alive"] = ping.lost == 0
    return sim, payload

"""The Internet as a latency cloud.

Site-pair RTTs in the paper (Table I / Table II / Table V) are direct
measurements, not derivable from any metric topology — so we model the
Internet core the same way: a :class:`WanCloud` delivers frames between
attachment points with a configurable per-pair one-way latency. Capacity
bottlenecks live on the *access links* between each site gateway and the
cloud, matching how the paper's sites were actually constrained.

The cloud behaves like a giant learning switch (so ARP between public
addresses works), but with per-pair delays instead of a uniform fabric
delay. Like the real core, it carries no RFC 1918 destination (RFC 1918
§3; Ford et al. reach a private endpoint only over a shared private
network): an ARP request for a private address is counted in
``frames_unroutable`` and dropped, so a private candidate reaches a peer
only over a shared LAN.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush

from repro.net.addresses import IPv4Network, MacAddress
from repro.net.l2 import Port
from repro.net.packet import ETHERTYPE_ARP, EthernetFrame
from repro.sim.engine import Simulator

__all__ = ["WanCloud"]

PRIVATE_NETWORKS = (IPv4Network("10.0.0.0/8"), IPv4Network("172.16.0.0/12"),
                    IPv4Network("192.168.0.0/16"))


class WanCloud:
    """Per-pair-latency frame fabric joining site gateways."""

    def __init__(self, sim: Simulator, default_latency: float = 0.050) -> None:
        self.sim = sim
        self.name = "internet"  # one cloud per run
        self.default_latency = default_latency
        self.ports: dict[str, Port] = {}
        self._port_names: dict[Port, str] = {}
        self._latency: dict[tuple[str, str], float] = {}
        self.mac_table: dict[MacAddress, str] = {}
        self.frames_carried = 0
        # Inter-site partitions: ordered pairs whose frames are dropped.
        self._partitioned: set[tuple[str, str]] = set()
        self.frames_partitioned = 0
        self.frames_unroutable = 0  # ARP requests for RFC 1918 targets
        self._watchers: list = []

    def add_watcher(self, fn) -> None:
        """Subscribe ``fn(cloud)`` to partition/heal changes (fluid-plane
        re-solve hook)."""
        self._watchers.append(fn)

    def _notify_watchers(self) -> None:
        for fn in self._watchers:
            fn(self)

    # -- topology -----------------------------------------------------------
    def attach(self, site: str) -> Port:
        """Create the cloud-side port for ``site``; wire it to the site's
        gateway with a Link (that link models the site's access capacity)."""
        if site in self.ports:
            raise ValueError(f"site {site!r} already attached")
        port = Port(self, name=f"{self.name}.{site}")
        self.ports[site] = port
        self._port_names[port] = site
        return port

    def detach(self, site: str) -> None:
        port = self.ports.pop(site)
        del self._port_names[port]
        self.mac_table = {m: s for m, s in self.mac_table.items() if s != site}

    def set_latency(self, a: str, b: str, one_way: float) -> None:
        """Symmetric one-way latency between two attachment points."""
        if one_way < 0:
            raise ValueError(f"negative latency {one_way}")
        self._latency[(a, b)] = one_way
        self._latency[(b, a)] = one_way

    def set_rtt(self, a: str, b: str, rtt: float) -> None:
        self.set_latency(a, b, rtt / 2.0)

    def latency(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._latency.get((a, b), self.default_latency)

    # -- partitions (fault plane) ---------------------------------------
    def partition(self, group_a, group_b) -> None:
        """Drop all frames between sites in ``group_a`` and ``group_b``
        (both directions) until :meth:`heal` — a WAN inter-site
        partition. Sites not named keep full connectivity."""
        for a in group_a:
            for b in group_b:
                if a != b:
                    self._partitioned.add((a, b))
                    self._partitioned.add((b, a))
        self.sim.trace.event("fault.partition", cloud=self.name,
                             a=sorted(group_a), b=sorted(group_b))
        self._notify_watchers()

    def heal(self, group_a=None, group_b=None) -> None:
        """Remove a specific partition, or all of them when called with
        no arguments."""
        if group_a is None:
            self._partitioned.clear()
        else:
            for a in group_a:
                for b in group_b or ():
                    self._partitioned.discard((a, b))
                    self._partitioned.discard((b, a))
        self.sim.trace.event("fault.heal", cloud=self.name)
        self._notify_watchers()

    def partitioned(self, a: str, b: str) -> bool:
        return (a, b) in self._partitioned

    # -- datapath -------------------------------------------------------------
    def on_frame(self, frame: EthernetFrame, in_port: Port) -> None:
        src_site = self._port_names.get(in_port)
        if src_site is None:
            return  # detached mid-flight
        self.mac_table[frame.src] = src_site
        self.frames_carried += 1
        if not frame.dst.is_broadcast:
            dst_site = self.mac_table.get(frame.dst)
            if dst_site is not None:
                self._deliver(src_site, dst_site, frame)
                return
        # Broadcast / unknown destination: flood (ARP resolution path),
        # except an ARP request for a private address: the core routes none.
        if frame.ethertype == ETHERTYPE_ARP and frame.payload.op == "request":
            target = frame.payload.target_ip
            if any(target in net for net in PRIVATE_NETWORKS):
                self.frames_unroutable += 1
                return
        for site in list(self.ports):
            if site != src_site:
                self._deliver(src_site, site, frame)

    def _deliver(self, src: str, dst: str, frame: EthernetFrame) -> None:
        if self._partitioned and (src, dst) in self._partitioned:
            self.frames_partitioned += 1
            return
        port = self.ports.get(dst)
        if port is None:
            return
        # One calendar entry per frame, pushed inline as the pipes in net/l2 do.
        sim = self.sim
        delay = 0.0 if src == dst else self._latency.get((src, dst), self.default_latency)
        sim._seq = seq = sim._seq + 1
        heappush(sim._calendar, (sim.now + delay, seq, None, partial(port.transmit, frame)))

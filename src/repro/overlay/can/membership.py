"""CAN membership: who owns which zones, and who abuts whom.

* ``can.join`` (a routed op) — the owner of the joiner's point splits its
  zone and replies with the joiner's half, the directory handles that
  fall in it, and the neighbor set.
* ``can.nbr`` — neighbor announcement/refresh (zones + address).
* ``can.leave`` — graceful departure: zone and handles handed to the
  merge-compatible neighbor, or to the smallest neighbor as an extra
  zone (nodes may own several zones, as in the CAN paper's takeover).
* ``can.ping`` — liveness probe used before declaring a silent neighbor
  dead.
* ``can.dead`` — gossip that a neighbor died ungracefully; receivers drop
  it and the arbitration winner absorbs its zones.

**Ungraceful takeover.** A neighbor that misses three announcement
intervals is probed (``can.ping``); on timeout it is declared dead and
the death is gossiped. Every node that abutted the dead node computes
the takeover owner locally — the abutting neighbor with the smallest
``node_id`` — and only the owner absorbs the zones and promotes the
handle replicas. Rendezvous overlays are small and near-clique, so every
detector sees the same candidate set and the arbitration is
deterministic; the graceful ``can.leave`` path is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import IPv4Address
from repro.overlay.can.routing import CAN_PORT, NeighborInfo, RouteOp
from repro.overlay.can.storage import HandleStore
from repro.overlay.rpc import RpcError, RpcTimeout
from repro.overlay.space import Zone
from repro.sim.engine import Interrupt

PING_INTERVAL = 10.0  # seconds between neighbor announcements / sweeps


@dataclass(frozen=True)
class _JoinGrant:
    zone: Zone
    neighbors: tuple  # NeighborInfo snapshots
    handles: tuple  # HostTable handles whose points fall in the zone

    @property
    def size(self) -> int:
        return (64 + sum(n.size for n in self.neighbors)
                + 8 * len(self.handles))


@dataclass(frozen=True)
class _ShedPayload:
    """Hot-zone split handoff: half a zone plus the directory handles
    that fall in it."""

    shedder: NeighborInfo
    zone: Zone
    handles: tuple

    @property
    def size(self) -> int:
        return 48 + self.shedder.size + 8 * len(self.handles)


@dataclass(frozen=True)
class _LeavePayload:
    leaver: NeighborInfo
    zones: tuple
    handles: tuple

    @property
    def size(self) -> int:
        return 32 + 16 * len(self.zones) + 8 * len(self.handles)


class Membership:
    def __init__(self, hot_zone_limit) -> None:
        self.zones: list[Zone] = []
        self.neighbors: dict[str, NeighborInfo] = {}
        self.ping_interval = PING_INTERVAL
        self.joined = False
        # When set, a zone holding more than this many directory entries
        # is split and half is handed to an abutting neighbor. The scan
        # is throttled: re-checked only after the handle store grows by
        # a quarter of the limit since the last scan (``_split_mark``),
        # so storm-scale batch inserts don't pay a per-batch zone sweep.
        self.hot_zone_limit = hot_zone_limit
        self._split_mark = -1
        # Peer addresses learned over time; survives a crash the way an
        # on-disk peer cache would, so a restored node can rejoin.
        self._known_peers: dict[str, tuple[IPv4Address, int]] = {}
        self._pinger = None
        self._probing: set[str] = set()
        self._remerging = False

    def bootstrap(self) -> None:
        """Become the first node: own the whole space."""
        self.zones = [Zone.whole(self.dims)]
        self.joined = True
        self._start_pinger()

    def join_via(self, bootstrap_ip: IPv4Address, bootstrap_port: int = CAN_PORT):
        """Process: join the overlay through an existing node."""
        rng = self.sim.rng.stream(f"can.join.{self.node_id}")
        point = tuple(float(x) for x in rng.random(self.dims))
        me = self._my_info()
        grant: _JoinGrant = yield from self.rpc.call(
            bootstrap_ip, bootstrap_port, "can.route",
            RouteOp(point, "join", me), timeout=5.0)
        self.zones = [grant.zone]
        self._inherit(grant.handles)
        for info in grant.neighbors:
            if info.node_id != self.node_id:
                self.neighbors[info.node_id] = info
                self._known_peers[info.node_id] = (info.ip, info.port)
        self.joined = True
        self._announce_to_neighbors()
        self._prune_non_neighbors()
        self._start_pinger()
        return self

    def leave(self):
        """Process: graceful departure — hand zones and handles to a
        neighbor (merge-compatible if possible, else smallest)."""
        if not self.joined:
            return None
        target = self._handover_target()
        if target is not None:
            yield from self.rpc.call(
                target.ip, target.port, "can.leave",
                _LeavePayload(self._my_info(), tuple(self.zones),
                              tuple(self.handles)), timeout=5.0)
        self._go_dark("leaving")
        return None

    def _go_dark(self, reason: str) -> None:
        """Stop the maintenance loop and give up every zone and handle."""
        if self._pinger is not None and self._pinger.is_alive:
            self._pinger.interrupt(reason)
        self._pinger = None
        self.joined = False
        self.zones = []
        self.handles.clear()

    def _handover_target(self) -> Optional[NeighborInfo]:
        if not self.neighbors:
            return None
        # Prefer a neighbor that can absorb us into a clean box.
        mergeable = self._abutting(self.zones, Zone.can_merge)
        if mergeable:
            return self.neighbors[mergeable[0]]
        return min(self.neighbors.values(),
                   key=lambda i: sum(z.volume() for z in i.zones))

    # -- neighbor set -----------------------------------------------------------
    def _my_info(self) -> NeighborInfo:
        return NeighborInfo(self.node_id, self.ip, CAN_PORT,
                            zones=list(self.zones), last_seen=self.sim.now)

    def _is_neighbor(self, info: NeighborInfo) -> bool:
        for mine in self.zones:
            for theirs in info.zones:
                if mine.is_neighbor(theirs):
                    return True
        return False

    def _abutting(self, zones, test=Zone.is_neighbor) -> list[str]:
        """Neighbor ids, in order, with a zone passing ``test`` against ``zones``."""
        return [nid for nid, info in self.neighbors.items()
                if any(test(nz, z) for nz in info.zones for z in zones)]

    def _prune_non_neighbors(self) -> None:
        for node_id in list(self.neighbors):
            if not self._is_neighbor(self.neighbors[node_id]):
                del self.neighbors[node_id]

    def _announce_to_neighbors(self) -> None:
        me = self._my_info()
        for info in self.neighbors.values():
            self.rpc.notify(info.ip, info.port, "can.nbr", me)

    # -- periodic maintenance ----------------------------------------------
    def _start_pinger(self) -> None:
        self._pinger = self.sim.process(self._ping_loop(), name=f"can-ping:{self.node_id}")

    def _ping_loop(self):
        try:
            while self.joined:
                yield self.sim.timeout(self.ping_interval)
                self._announce_to_neighbors()
                self._prune_handles()
                self._sync_replicas()
                self._check_neighbors()
                self._maybe_remerge()
        except Interrupt:
            return

    def _check_neighbors(self) -> None:
        """Probe neighbors that have gone silent instead of silently
        forgetting them: a probe timeout means an ungraceful death and
        triggers the takeover protocol."""
        horizon = self.sim.now - 3 * self.ping_interval - 1e-9
        for node_id, info in list(self.neighbors.items()):
            if 0 < info.last_seen < horizon and node_id not in self._probing:
                self._probing.add(node_id)
                self.sim.process(self._probe_neighbor(info),
                                 name=f"can-probe:{self.node_id}->{node_id}")

    def _probe_neighbor(self, info: NeighborInfo):
        try:
            fresh = yield from self.rpc.call(info.ip, info.port, "can.ping",
                                            self.node_id, timeout=2.0, retries=2)
        except (RpcTimeout, RpcError):
            self._declare_dead(info)
        else:
            # Alive: the pong carries its current zones, so it is handled
            # as a ``can.nbr`` announcement (a live peer whose zones no
            # longer abut ours is simply forgotten, not declared dead).
            self._on_neighbor(fresh, None, None)
        finally:
            self._probing.discard(info.node_id)

    # -- ungraceful death and takeover -------------------------------------
    def _declare_dead(self, dead: NeighborInfo) -> None:
        """A neighbor died without ``can.leave``: drop it, gossip the
        death, and absorb its zones iff we win the local arbitration."""
        if self.neighbors.pop(dead.node_id, None) is None:
            return  # already handled (gossip raced with our own probe)
        self._m_deaths.add()
        self.sim.trace.event("can.dead", node=self.node_id, dead=dead.node_id)
        for info in self.neighbors.values():
            self.rpc.notify(info.ip, info.port, "can.dead", dead)
        if self._takeover_owner(dead) == self.node_id:
            self._takeover(dead)

    def _takeover_owner(self, dead: NeighborInfo) -> Optional[str]:
        """The abutting neighbor with the smallest node_id takes over.
        Each detector computes this from its own neighbor set; rendezvous
        overlays are small and near-clique, so all detectors agree."""
        candidates = self._abutting(dead.zones)
        if any(z.is_neighbor(dz) for z in self.zones for dz in dead.zones):
            candidates.append(self.node_id)
        return min(candidates) if candidates else None

    def _takeover(self, dead: NeighborInfo) -> None:
        """Absorb the dead node's zones and promote our replicas of its
        handles — the CAN paper's TAKEOVER, previously implemented only
        for graceful ``can.leave``."""
        self._m_takeovers.add()
        self._absorb_zones(dead.zones)
        promoted = self.handle_replicas.pop(dead.node_id, HandleStore()).array
        self._inherit(promoted)
        self._prune_handles()
        self.sim.trace.event("can.takeover", node=self.node_id, dead=dead.node_id,
                             zones=len(dead.zones), handles=len(promoted))
        self._announce_to_neighbors()
        self._prune_non_neighbors()

    def _absorb_zones(self, zones) -> None:
        for zone in zones:
            for i, mine in enumerate(self.zones):
                if mine.can_merge(zone):
                    self.zones[i] = mine.merge(zone)
                    self._m_merges.add()
                    self.sim.trace.event("can.merge", node=self.node_id,
                                         zones=len(self.zones))
                    break
            else:
                self.zones.append(zone)

    # -- hot-zone splitting -------------------------------------------------
    def _maybe_split(self, arrived: int) -> None:
        """Shed half of any over-loaded zone to an abutting neighbor —
        load-driven splitting on top of the join-driven splits of the
        CAN paper. Called after every store; ``arrived`` is how many
        handles that store carried."""
        if self.hot_zone_limit is None or len(self.neighbors) == 0:
            return
        if (self._split_mark < 0 and arrived == 1
                and len(self.handles) <= self.hot_zone_limit):
            # The throttle below paces scans within a burst, counted from
            # the first scan. One host registering while the whole store is
            # under the limit cannot have made a zone hot, and must not set
            # the phase of the scans a later storm gets.
            return
        if (self._split_mark >= 0 and len(self.handles) - self._split_mark
                < max(1, self.hot_zone_limit // 4)):
            return
        self._split_mark = len(self.handles)
        # Every zone's load from one gather; a shed half leaves ``inside``.
        zones = list(self.zones)
        ids, inside = self._live_in(zones)
        for zone, in_zone in zip(zones, inside):
            rows = in_zone.nonzero()[0]
            load = len(rows)
            if load <= self.hot_zone_limit:
                continue
            keep, shed = zone.split()
            halves = self.table.in_zones([keep, shed], ids[rows])
            if halves[1].sum() < halves[0].sum():
                keep, shed = shed, keep
                halves = halves[::-1]
            abutting = sorted(self._abutting([shed]))
            if not abutting:
                continue
            target = self.neighbors[abutting[0]]
            self.zones.remove(zone)
            self.zones.append(keep)
            shed_handles = self._extract_handles(shed)
            inside[:, rows[halves[1]]] = False
            self._m_splits.add()
            self.sim.trace.event("can.split", node=self.node_id,
                                 load=load, target=target.node_id,
                                 entries=len(shed_handles))
            self.sim.process(
                self._offer_zone("can.shed", target, shed, shed_handles),
                name=f"can-shed:{self.node_id}->{target.node_id}")

    def _offer_zone(self, kind: str, target: NeighborInfo, zone: Zone,
                    handles: tuple):
        """Process: hand ``zone`` and its handles to ``target`` with a
        ``can.shed`` or ``can.remerge``. If the call fails or the receiver
        refuses, reabsorb both so the directory entries survive."""
        try:
            result = yield from self.rpc.call(
                target.ip, target.port, kind,
                _ShedPayload(self._my_info(), zone, handles), timeout=5.0)
        except (RpcTimeout, RpcError):
            result = None
        accepted = bool(result) and result[0] != "refused"
        if accepted:
            self._announce_to_neighbors()
            self._prune_non_neighbors()
        else:
            self._absorb_zones([zone])
            self.handles.update(handles)
        if kind == "can.remerge":
            self._remerging = False
            if accepted:  # else refused: receiver too loaded, or zones drifted
                self._m_remerges.add()
                self.sim.trace.event("can.remerge", node=self.node_id,
                                     target=target.node_id, entries=len(handles),
                                     zones=len(self.zones))

    def _on_shed(self, payload: _ShedPayload, _src_ip, _src_port,
                 verdict: str = "absorbed"):
        self._absorb_zones([payload.zone])
        self._inherit(payload.handles)
        self._on_neighbor(payload.shedder, None, None)
        self._announce_to_neighbors()
        return (verdict, self.node_id)

    # -- zone re-merge when load drains -------------------------------------
    def _maybe_remerge(self) -> None:
        """Reverse of hot-zone splitting: once a storm drains, hand a
        near-empty zone back to a neighbor whose zone merges with it.

        Hysteresis keeps split/merge from oscillating: we only offer a
        zone at or below a quarter of ``hot_zone_limit``, and the
        receiver refuses unless the merged zone would still sit at or
        below half the limit after absorbing the entries.
        """
        if (self.hot_zone_limit is None or self._remerging
                or not self.joined or len(self.zones) <= 1):
            return
        low_water = max(1, self.hot_zone_limit // 4)
        zones = list(self.zones)
        for zone, in_zone in zip(zones, self._live_in(zones)[1]):
            if in_zone.sum() > low_water:
                continue
            candidates = sorted(self._abutting([zone], Zone.can_merge))
            if not candidates:
                continue
            target = self.neighbors[candidates[0]]
            self.zones.remove(zone)
            handles = self._extract_handles(zone)
            self._remerging = True
            self.sim.process(
                self._offer_zone("can.remerge", target, zone, handles),
                name=f"can-remerge:{self.node_id}->{target.node_id}")
            return  # at most one offer per maintenance sweep

    def _on_remerge(self, payload: _ShedPayload, _src_ip, _src_port):
        zone = payload.zone
        merged_into = next((m for m in self.zones if m.can_merge(zone)), None)
        if merged_into is None:
            return ("refused", self.node_id)
        if self.hot_zone_limit is not None:
            if (self.zone_load(merged_into) + len(payload.handles)
                    > self.hot_zone_limit // 2):
                return ("refused", self.node_id)
        return self._on_shed(payload, _src_ip, _src_port, "merged")

    def _admit(self, joiner: NeighborInfo) -> _JoinGrant:
        """Split the zone covering the joiner's point and grant half."""
        # Split the largest zone we own (classic CAN splits the zone that
        # contains the join point; with multi-zone takeover state, the
        # containing zone is the right choice when we have it).
        zone = max(self.zones, key=lambda z: z.volume())
        self.zones.remove(zone)
        mine, granted = zone.split()
        self.zones.append(mine)
        moved = self._extract_handles(granted)
        joiner_info = NeighborInfo(joiner.node_id, joiner.ip, joiner.port,
                                   zones=[granted], last_seen=self.sim.now)
        self._known_peers[joiner.node_id] = (joiner.ip, joiner.port)
        # Neighbor set for the joiner: us + any of our neighbors abutting it.
        grant_neighbors = [self._my_info(),
                           *(self.neighbors[nid] for nid in self._abutting([granted]))]
        self.neighbors[joiner.node_id] = joiner_info
        self._prune_non_neighbors()
        self._announce_to_neighbors()
        return _JoinGrant(granted, tuple(grant_neighbors), moved)

    # -- inbound notifications ---------------------------------------------------
    def _on_neighbor(self, info: NeighborInfo, _src_ip, _src_port):
        if info.node_id == self.node_id:
            return None
        info.last_seen = self.sim.now
        self._known_peers[info.node_id] = (info.ip, info.port)
        if self._is_neighbor(info):
            self.neighbors[info.node_id] = info
        else:
            self.neighbors.pop(info.node_id, None)
        return None

    def _on_leave(self, payload: _LeavePayload, _src_ip, _src_port):
        # Absorb zones (merging into boxes where possible) and handles.
        self._absorb_zones(payload.zones)
        self._inherit(payload.handles)
        self.neighbors.pop(payload.leaver.node_id, None)
        self.handle_replicas.pop(payload.leaver.node_id, None)
        self._announce_to_neighbors()
        return ("absorbed", self.node_id)

    def _on_ping(self, peer_id: str, _src_ip, _src_port) -> NeighborInfo:
        info = self.neighbors.get(peer_id)
        if info is not None:
            info.last_seen = self.sim.now
        return self._my_info()

    def _on_dead(self, dead: NeighborInfo, _src_ip, _src_port):
        self._declare_dead(dead)
        return None

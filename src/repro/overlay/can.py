"""CAN node: zone ownership, greedy routing, join/leave, resource store.

Protocol (all RPC over UDP between public rendezvous hosts):

* ``can.join``    — routed to the owner of the joiner's point; the owner
  splits its zone and replies with the joiner's half, the directory
  handles that fall in it, and the neighbor set.
* ``can.route``   — generic greedy routing envelope: carried operation is
  executed at the point's owner, the reply unwinds hop-by-hop.
* ``can.nbr``     — neighbor announcement/refresh (zones + address).
* ``can.leave``   — graceful departure: zone and handles handed to the
  merge-compatible neighbor, or to the smallest neighbor as an extra
  zone (nodes may own several zones, as in the CAN paper's takeover).
* ``can.ping``    — liveness probe used before declaring a silent
  neighbor dead.
* ``can.dead``    — gossip that a neighbor died ungracefully; receivers
  drop it and the arbitration winner absorbs its zones (see below).
* ``can.replica_ids`` — owner pushes a copy of each stored handle batch
  to its neighbors, so an ungraceful death does not lose the entries:
  the takeover node promotes its replicas of the dead node's handles.
  Handles that change owner (join grant, shed, re-merge, leave,
  takeover) and neighbors that appear later are covered by the
  maintenance sweep, which re-sends the owner's full set once.

**One directory.** An entry is a generation-checked
:class:`~repro.core.hoststate.HostTable` *handle*, never a record copy:
``put_ids`` publishes rows the rendezvous layer just wrote, ``get``
rebuilds :class:`~repro.overlay.resources.ResourceRecord` answers from
the table, and liveness is read there too — a handle answers queries
while its generation matches, the row is registered and its
``last_seen`` is within ``record_ttl``.

**Ungraceful takeover.** A neighbor that misses three announcement
intervals is probed (``can.ping``); on timeout it is declared dead and
the death is gossiped. Every node that abutted the dead node computes
the takeover owner locally — the abutting neighbor with the smallest
``node_id`` — and only the owner absorbs the zones and promotes the
handle replicas. Rendezvous overlays are small and near-clique, so every
detector sees the same candidate set and the arbitration is
deterministic; the graceful ``can.leave`` path is unchanged.

Routing metric: forward to the neighbor whose zone-set is closest (torus
distance) to the destination point, strictly decreasing; the owner
executes the operation. Hop-by-hop latency is real simulated network
latency — this is what makes resource-query timing in the benchmarks
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.net.addresses import IPv4Address
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.overlay.space import Point, Zone, zone_distances
from repro.sim.lifecycle import Component

__all__ = ["CanNode", "HandleStore", "NeighborInfo"]

CAN_PORT = 4000
MAX_HOPS = 64
PING_INTERVAL = 10.0  # seconds between neighbor announcements / sweeps
HOST_TTL = 60.0  # the one liveness horizon: directory answers and expiry


@dataclass
class NeighborInfo:
    node_id: str
    ip: IPv4Address
    port: int
    zones: list = field(default_factory=list)
    last_seen: float = 0.0

    @property
    def size(self) -> int:
        return 24 + 16 * len(self.zones)


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
class _RouteOp:
    """An operation being routed to the owner of ``point``."""

    point: Point
    op: str  # 'get' | 'join' | 'put_ids'
    body: Any
    hops: int = 0

    @property
    def size(self) -> int:
        return 24 + 8 * len(self.point) + (getattr(self.body, "size", 16) or 16)


class HandleStore:
    """The directory's handle store: a sorted, duplicate-free int64
    array behind the few set operations the protocol uses. A batch is
    merged with one ``searchsorted`` and one ``np.insert``, removed with
    one ``searchsorted`` and one ``np.delete`` — never a whole-store
    union or membership pass. Iteration yields Python ints in sorted
    order. No ``size`` attribute: ``_RouteOp.size`` would read it."""

    __slots__ = ("array",)

    def __init__(self) -> None:
        self.array = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.array.tolist())

    def __contains__(self, handle) -> bool:
        i = int(np.searchsorted(self.array, handle))
        return i < len(self.array) and int(self.array[i]) == handle

    def _present(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slots of ``batch`` in the store, and which of them hold it."""
        slots = np.searchsorted(self.array, batch)
        hit = slots < len(self.array)
        hit[hit] = self.array[slots[hit]] == batch[hit]
        return slots, hit

    def update(self, handles) -> None:
        # Sort and drop repeats by hand: a bare ``np.unique`` (NumPy 2.4)
        # imports ``numpy.ma`` on first use, 1.6 MB of RSS in runs that
        # never needed it.
        batch = np.sort(np.asarray(handles, dtype=np.int64))
        first = np.ones(len(batch), dtype=bool)
        first[1:] = batch[1:] != batch[:-1]
        batch = batch[first]
        slots, hit = self._present(batch)
        if not hit.all():
            self.array = np.insert(self.array, slots[~hit], batch[~hit])

    def difference_update(self, handles) -> None:
        slots, hit = self._present(np.asarray(handles, dtype=np.int64))
        if hit.any():
            self.array = np.delete(self.array, slots[hit])

    def clear(self) -> None:
        self.array = np.empty(0, dtype=np.int64)


class CanNode(Component):
    """A CAN overlay node living on a public host.

    As a lifecycle :class:`~repro.sim.lifecycle.Component` (kind
    ``can``): stop/crash drop all volatile overlay state (zones,
    handles, replicas, neighbors) and close the socket; ``restore``
    rebinds and rejoins through the cached peer addresses — the
    surviving overlay sees the old incarnation die ungracefully and
    takes over its zones, then admits the rejoiner as a fresh node.
    """

    def __init__(self, host, table,
                 replication_factor: Optional[int] = None,
                 hot_zone_limit: Optional[int] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.node_id = host.name
        Component.__init__(self, host.sim, "can", self.node_id)
        self.dims = table.spec.dims
        self.ip: IPv4Address = host.stack.ips[0]
        self.zones: list[Zone] = []
        self.neighbors: dict[str, NeighborInfo] = {}
        self.ping_interval = PING_INTERVAL
        self.record_ttl = HOST_TTL
        self.joined = False
        self.routed_ops = 0
        # The HostTable every overlay node shares: directory entries are
        # generation-checked *handles* to its rows.
        self.table = table
        self.handles = HandleStore()
        # None = replicate every stored handle to every neighbor (the
        # original small-overlay behavior); an int caps the copies.
        self.replication_factor = replication_factor
        # When set, a zone holding more than this many directory entries
        # is split and half is handed to an abutting neighbor. The scan
        # is throttled: re-checked only after the handle store grows by
        # a quarter of the limit since the last scan (``_split_mark``),
        # so storm-scale batch inserts don't pay a per-batch zone sweep.
        self.hot_zone_limit = hot_zone_limit
        self._split_mark = -1
        # Replicas of handles owned by other nodes, keyed by owner id —
        # promoted into ``handles`` if that owner dies ungracefully.
        self.handle_replicas: dict[str, HandleStore] = {}
        # Peer addresses learned over time; survives a crash the way an
        # on-disk peer cache would, so a restored node can rejoin.
        self._known_peers: dict[str, tuple[IPv4Address, int]] = {}
        self.metrics = self.sim.metrics.scope(f"{self.node_id}.can")
        self._m_takeovers = self.metrics.counter("takeovers")
        self._m_deaths = self.metrics.counter("deaths_detected")
        self._m_replicas = self.metrics.counter("replicas.stored")
        self._m_splits = self.metrics.counter("splits")
        self._m_merges = self.metrics.counter("merges")
        self._m_remerges = self.metrics.counter("remerges")
        self._m_handles = self.metrics.counter("handles.stored")
        self._m_dropped = self.metrics.counter("handles.dropped")
        sock = host.udp.bind(CAN_PORT)
        self.rpc = RpcEndpoint(host.stack, sock, name=f"can:{self.node_id}")
        sock.handler = self.rpc.handle_datagram
        self.rpc.register("can.route", self._on_route)
        self.rpc.register("can.nbr", self._on_neighbor)
        self.rpc.register("can.leave", self._on_leave)
        self.rpc.register("can.ping", self._on_ping)
        self.rpc.register("can.dead", self._on_dead)
        self.rpc.register("can.replica_ids", self._on_replica_ids)
        self.rpc.register("can.shed", self._on_shed)
        self.rpc.register("can.remerge", self._on_remerge)
        self._pinger = None
        self._probing: set[str] = set()
        self._synced: set[str] = set()  # neighbors holding our full handle set
        self._remerging = False

    # -- lifecycle ------------------------------------------------------
    def _on_stop(self) -> None:
        # No graceful handover here (that is :meth:`leave`, a protocol
        # action); a stopped node just goes dark and rejoins fresh.
        if self._pinger is not None and self._pinger.is_alive:
            self._pinger.interrupt("stopped")
        self._pinger = None
        self.rpc.shutdown()
        self.joined = False
        self.zones = []
        self.handles.clear()
        self.handle_replicas.clear()
        self.neighbors.clear()
        self._probing.clear()
        self._synced.clear()
        self._split_mark = -1

    def _on_restore(self) -> None:
        sock = self.host.udp.bind(CAN_PORT)
        sock.handler = self.rpc.handle_datagram
        self.rpc.rebind(sock)
        self.sim.process(self._rejoin(), name=f"can-rejoin:{self.node_id}")

    def _rejoin(self):
        """Process: rejoin through any cached peer; fall back to
        bootstrapping a fresh overlay if nobody answers."""
        for node_id, (ip, port) in sorted(self._known_peers.items()):
            if node_id == self.node_id:
                continue
            try:
                yield from self.join_via(ip, port)
                return
            except (RpcTimeout, RpcError):
                continue
        self.bootstrap()

    # -- membership -----------------------------------------------------
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
            _RouteOp(point, "join", me), timeout=5.0)
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
        self.joined = False
        self.zones = []
        self.handles.clear()
        if self._pinger is not None and self._pinger.is_alive:
            self._pinger.interrupt("leaving")
        return None

    def _handover_target(self) -> Optional[NeighborInfo]:
        if not self.neighbors:
            return None
        # Prefer a neighbor that can absorb us into a clean box.
        for info in self.neighbors.values():
            for nz in info.zones:
                if any(z.can_merge(nz) for z in self.zones):
                    return info
        return min(self.neighbors.values(),
                   key=lambda i: sum(z.volume() for z in i.zones))

    # -- geometry helpers ------------------------------------------------
    def owns(self, point: Point) -> bool:
        return any(z.contains(point) for z in self.zones)

    def _my_info(self) -> NeighborInfo:
        return NeighborInfo(self.node_id, self.ip, CAN_PORT,
                            zones=list(self.zones), last_seen=self.sim.now)

    def _is_neighbor(self, info: NeighborInfo) -> bool:
        for mine in self.zones:
            for theirs in info.zones:
                if mine.is_neighbor(theirs):
                    return True
        return False

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
        from repro.sim.engine import Interrupt
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

    def _prune_handles(self) -> None:
        """Drop handles whose table row was unregistered or re-registered
        (generation bump) — one vectorized validity mask per store. A
        handle that is merely silent past ``record_ttl`` stays: its row
        is still registered, and a resumed keepalive revives it."""
        for store in [self.handles, *self.handle_replicas.values()]:
            store.difference_update(store.array[~self.table.valid_mask(store.array)])

    def _check_neighbors(self) -> None:
        """Probe neighbors that have gone silent instead of silently
        forgetting them: a probe timeout means an ungraceful death and
        triggers the takeover protocol."""
        horizon = self.sim.now - 3 * self.ping_interval - 1e-9
        for node_id in list(self.neighbors):
            info = self.neighbors[node_id]
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
        def abuts(zones) -> bool:
            return any(z.is_neighbor(dz) for z in zones for dz in dead.zones)

        candidates = [nid for nid, info in self.neighbors.items() if abuts(info.zones)]
        if abuts(self.zones):
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
            merged = False
            for i, mine in enumerate(self.zones):
                if mine.can_merge(zone):
                    self.zones[i] = mine.merge(zone)
                    merged = True
                    self._m_merges.add()
                    self.sim.trace.event("can.merge", node=self.node_id,
                                         zones=len(self.zones))
                    break
            if not merged:
                self.zones.append(zone)

    # -- routing --------------------------------------------------------------
    def route(self, op: str, point: Point, body: Any, timeout: float = 5.0):
        """Process: execute ``op`` at the owner of ``point``; returns result."""
        request = _RouteOp(point, op, body)
        if self.owns(point):
            return self._execute(request)
        nxt = self._next_hop(point)
        if nxt is None:
            raise RpcTimeout(f"no route toward {point}")
        result = yield from self.rpc.call(nxt.ip, nxt.port, "can.route", request,
                                          timeout=timeout)
        return result

    def _next_hops(self, pts: np.ndarray) -> np.ndarray:
        """Greedy next hop for every row of ``pts`` (``(m, dims)``): the
        index into ``self.neighbors`` (insertion order) of the neighbor
        to forward to, ``-1`` where none is strictly closer than we are.

        One :func:`zone_distances` call over our zones and every
        neighbor's; then the rule, a loop over neighbors of vector ops
        over points: start from our own distance, walk the neighbors in
        insertion order, take one only when it beats the best so far by
        more than 1e-15 — so of several equally close, the first wins.
        """
        zones = [*self.zones, *(z for info in self.neighbors.values()
                                for z in info.zones)]
        dist = zone_distances([z.lows for z in zones], [z.highs for z in zones], pts)
        # Per-owner minimum over its columns; no zones = infinitely far.
        stop = len(self.zones)
        best_d = dist[:, :stop].min(axis=1, initial=np.inf)
        hops = np.full(len(dist), -1, dtype=np.int64)
        for k, info in enumerate(self.neighbors.values()):
            start, stop = stop, stop + len(info.zones)
            d = dist[:, start:stop].min(axis=1, initial=np.inf)
            closer = d < best_d - 1e-15
            best_d = np.where(closer, d, best_d)
            hops[closer] = k
        return hops

    def _next_hop(self, point: Point) -> Optional[NeighborInfo]:
        hop = int(self._next_hops(np.asarray([point], dtype=np.float64))[0])
        return None if hop < 0 else list(self.neighbors.values())[hop]

    def _on_route(self, op: _RouteOp, _src_ip, _src_port):
        self.routed_ops += 1
        if op.op == "put_ids":
            # Batched handle stores partition themselves: every hop keeps
            # what it owns and forwards per-destination sub-batches.
            return self._store_ids(op.body, op.hops)
        if self.owns(op.point):
            return self._execute(op)
        if op.hops >= MAX_HOPS:
            raise RpcError(f"hop limit reached at {self.node_id}")

        def forward():
            nxt = self._next_hop(op.point)
            if nxt is None:
                raise RpcError(f"routing dead end at {self.node_id} for {op.point}")
            fwd = _RouteOp(op.point, op.op, op.body, hops=op.hops + 1)
            result = yield from self.rpc.call(nxt.ip, nxt.port, "can.route", fwd)
            return result

        return forward()

    # -- operations executed at the owner --------------------------------------
    def _execute(self, op: _RouteOp):
        if op.op == "get":
            return self._handle_records(op.point, int(op.body) if op.body else 16)
        if op.op == "join":
            return self._admit(op.body)
        raise RpcError(f"unknown CAN op {op.op!r}")

    def _live_ids(self, handles: np.ndarray) -> np.ndarray:
        """Table ids of the live entries among ``handles``. Liveness is
        one rule, read from the table when it is needed: the handle's
        generation still matches, the row is registered, and it was seen
        (registered or kept alive) within ``record_ttl`` — no expiry
        sweep has to run for a dead host to stop answering queries or
        counting toward a zone's load."""
        ids = self.table.handle_ids(handles[self.table.valid_mask(handles)])
        return ids[self.table.last_seen[ids] > self.sim.now - self.record_ttl]

    def _handle_records(self, point: Point, limit: int) -> tuple:
        """Build ResourceRecords for the ``limit`` live table handles
        nearest ``point`` — the only rows a query forces out of columnar
        form. Distance ranking is vectorized over the coords column."""
        ids = self._live_ids(self.handles.array)
        delta = self.table.coords[ids] - np.asarray(point, dtype=np.float64)
        d2 = (delta * delta).sum(axis=1)
        top = np.lexsort((ids, d2))[:limit]
        return tuple(self.table.record(int(ids[k])) for k in top)

    # -- batched handle storage (registration-storm fast path) -------------
    def put_ids(self, ids) -> Any:
        """Process: publish directory handles for freshly registered table
        rows. Handles whose points this node owns are stored locally; the
        rest are forwarded in per-destination sub-batches — one routed
        RPC per destination node, not one per endpoint."""
        handles = self.table.handles(np.asarray(ids, dtype=np.int64))
        result = self._store_ids(handles, 0)
        if hasattr(result, "__next__"):
            result = yield from result
        return result

    def _store_ids(self, handles, hops: int):
        arr = np.asarray(handles, dtype=np.int64)
        ids = self.table.handle_ids(arr)
        own = np.zeros(len(arr), dtype=bool)
        for zone in self.zones:
            own |= self.table.in_zone(zone, ids)
        mine = arr[own]
        if len(mine):
            self.handles.update(mine)
            self._m_handles.add(len(mine))
            self._replicate(tuple(mine.tolist()), self._replica_targets())
            self._maybe_split(len(arr))
        rest = arr[~own]
        if not len(rest):
            return ("stored", int(len(mine)))
        if hops >= MAX_HOPS:
            raise RpcError(f"hop limit reached at {self.node_id}")

        def forward():
            stored = int(len(mine))
            rest_pts = self.table.coords[ids[~own]].astype(np.float64)
            hop = self._next_hops(rest_pts)
            node_ids = list(self.neighbors)
            # One sub-batch per next hop, in order of each hop's first
            # handle, handles in batch order. On the wire the batch is a
            # tuple of ints and the point a tuple of floats: an array has
            # a ``size`` of its own, which ``_RouteOp.size`` would read.
            # A handle with no hop, or whose hop is gone or fails, is not
            # stored: it is counted in ``handles.dropped``, not in the reply.
            hop_of, first = np.unique(hop, return_index=True)
            buckets = []
            for j, k in sorted(zip(first.tolist(), hop_of.tolist())):
                if k < 0:
                    self._m_dropped.add(int(np.count_nonzero(hop < 0)))
                    continue
                buckets.append((node_ids[k], tuple(rest_pts[j].tolist()),
                                tuple(rest[hop == k].tolist())))
            for node_id, point, batch in buckets:
                info = self.neighbors.get(node_id)
                if info is None:
                    self._m_dropped.add(len(batch))
                    continue
                fwd = _RouteOp(point, "put_ids", batch, hops=hops + 1)
                try:
                    reply = yield from self.rpc.call(info.ip, info.port,
                                                     "can.route", fwd)
                except (RpcTimeout, RpcError):
                    self._m_dropped.add(len(batch))
                    continue
                stored += int(reply[1])
            return ("stored", stored)

        return forward()

    def _replicate(self, handles: tuple, targets) -> None:
        """Push a copy of handles we own to ``targets``, so our
        ungraceful death does not lose them."""
        for info in targets:
            self.rpc.notify(info.ip, info.port, "can.replica_ids",
                            (self.node_id, handles))

    def _inherit(self, handles) -> None:
        """Take over handles another node owned — a join grant, a shed
        or re-merged zone, a leaver's or a dead neighbor's entries. The
        copies our neighbors hold are filed under the previous owner, so
        the next maintenance sweep re-sends them our full set."""
        self.handles.update(handles)
        self._synced.clear()

    def _sync_replicas(self) -> None:
        """Anti-entropy, once per change: send our full handle set to
        every replica target that has not had it since we last inherited
        entries — including a neighbor that appeared after they were
        stored (a joiner, a restored node) and so has no copy at all."""
        targets = self._replica_targets()
        fresh = [i for i in targets if i.node_id not in self._synced]
        self._synced = {i.node_id for i in targets}
        if fresh and self.handles:
            self._replicate(tuple(self.handles), fresh)

    def _replica_targets(self) -> list:
        if self.replication_factor is None:
            return list(self.neighbors.values())
        infos = sorted(self.neighbors.values(), key=lambda i: i.node_id)
        return infos[: self.replication_factor]

    # -- zone contents ------------------------------------------------------
    def _handles_in(self, zone: Zone) -> np.ndarray:
        """Stored handles whose CAN coordinates fall inside ``zone`` —
        what a join grant, a split or a re-merge hands over, and what
        :meth:`zone_load` counts."""
        arr = self.handles.array
        return arr[self.table.in_zone(zone, self.table.handle_ids(arr))]

    def _extract_handles(self, zone: Zone) -> tuple:
        """Remove and return the handles falling inside ``zone`` — the
        transferable half of a join, split or re-merge handoff."""
        handles = self._handles_in(zone)
        self.handles.difference_update(handles)
        return tuple(handles.tolist())

    # -- hot-zone splitting -------------------------------------------------
    def zone_load(self, zone: Zone) -> int:
        """Live directory entries in one zone."""
        return len(self._live_ids(self._handles_in(zone)))

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
        for zone in list(self.zones):
            load = self.zone_load(zone)
            if load <= self.hot_zone_limit:
                continue
            keep, shed = zone.split()
            if self.zone_load(shed) < self.zone_load(keep):
                keep, shed = shed, keep
            abutting = sorted(
                nid for nid, info in self.neighbors.items()
                if any(shed.is_neighbor(nz) for nz in info.zones))
            if not abutting:
                continue
            target = self.neighbors[abutting[0]]
            self.zones.remove(zone)
            self.zones.append(keep)
            shed_handles = self._extract_handles(shed)
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
        ``can.shed`` or ``can.remerge``. True once accepted; if the call
        fails or the receiver refuses, reabsorb both so the directory
        entries survive."""
        try:
            result = yield from self.rpc.call(
                target.ip, target.port, kind,
                _ShedPayload(self._my_info(), zone, handles), timeout=5.0)
        except (RpcTimeout, RpcError):
            result = None
        if not result or result[0] == "refused":
            self._absorb_zones([zone])
            self.handles.update(handles)
            return False
        self._announce_to_neighbors()
        self._prune_non_neighbors()
        return True

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
        for zone in list(self.zones):
            if self.zone_load(zone) > low_water:
                continue
            candidates = sorted(
                nid for nid, info in self.neighbors.items()
                if any(nz.can_merge(zone) for nz in info.zones))
            if not candidates:
                continue
            target = self.neighbors[candidates[0]]
            self.zones.remove(zone)
            handles = self._extract_handles(zone)
            self._remerging = True
            self.sim.process(
                self._remerge_zone(target, zone, handles),
                name=f"can-remerge:{self.node_id}->{target.node_id}")
            return  # at most one offer per maintenance sweep

    def _remerge_zone(self, target: NeighborInfo, zone: Zone, handles: tuple):
        try:
            merged = yield from self._offer_zone("can.remerge", target,
                                                 zone, handles)
        finally:
            self._remerging = False
        if merged:  # else refused: receiver too loaded, or zones drifted
            self._m_remerges.add()
            self.sim.trace.event("can.remerge", node=self.node_id,
                                 target=target.node_id, entries=len(handles),
                                 zones=len(self.zones))

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
        grant_neighbors = [self._my_info()]
        for info in self.neighbors.values():
            if any(granted.is_neighbor(nz) for nz in info.zones):
                grant_neighbors.append(info)
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

    def _on_leave(self, payload: "_LeavePayload", _src_ip, _src_port):
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

    def _on_replica_ids(self, payload: tuple, _src_ip, _src_port):
        owner_id, handles = payload
        batch = np.asarray(handles, dtype=np.int64)
        # One copy per handle, filed under its latest owner: entries that
        # moved (shed, re-merged, taken over) leave the old owner's store.
        for other, copies in self.handle_replicas.items():
            if other != owner_id:
                copies.difference_update(batch)
        self.handle_replicas.setdefault(owner_id, HandleStore()).update(batch)
        self._m_replicas.add(len(handles))
        return None


@dataclass(frozen=True)
class _LeavePayload:
    leaver: NeighborInfo
    zones: tuple
    handles: tuple

    @property
    def size(self) -> int:
        return 32 + 16 * len(self.zones) + 8 * len(self.handles)

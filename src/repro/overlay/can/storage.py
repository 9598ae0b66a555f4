"""The CAN directory's store: handles, their replicas, their liveness.

An entry is a generation-checked
:class:`~repro.core.hoststate.HostTable` *handle*, never a record copy:
``put_ids`` publishes rows the rendezvous layer just wrote, ``get``
rebuilds :class:`~repro.overlay.resources.ResourceRecord` answers from
the table, and liveness is read there too — a handle answers queries
while its generation matches, the row is registered and its
``last_seen`` is within ``record_ttl``.

``can.replica_ids``: the owner pushes a copy of each stored handle batch
to its neighbors, so an ungraceful death does not lose the entries: the
takeover node promotes its replicas of the dead node's handles. Handles
that change owner (join grant, shed, re-merge, leave, takeover) and
neighbors that appear later are covered by the maintenance sweep, which
re-sends the owner's full set once.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.can.routing import MAX_HOPS, RouteOp, next_hops
from repro.overlay.rpc import RpcError, RpcTimeout
from repro.overlay.space import Point, Zone

HOST_TTL = 60.0  # the one liveness horizon: directory answers and expiry


_EMPTY = np.empty(0, dtype=np.int64)


def _present(arr: np.ndarray, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots of ``batch`` in the sorted ``arr``, and which of them hold it."""
    slots = np.searchsorted(arr, batch)
    if not len(arr):
        return slots, np.zeros(len(batch), dtype=bool)
    return slots, arr.take(slots, mode="clip") == batch


class HandleStore:
    """The directory's handle store: a sorted, duplicate-free int64
    ``.array`` behind the few set operations the protocol uses. Writes
    do not copy the store: it is a sorted base plus a small sorted delta
    disjoint from it, merged when the delta outgrows a sixteenth of the
    base or ``.array`` is read; a merge is a stable sort of the two
    runs' concatenation, which timsort does in one linear pass. ``len``,
    ``in`` and sorted iteration (Python ints) are exact between writes.
    No ``size`` attribute: ``RouteOp.size`` would read it."""

    __slots__ = ("_base", "_delta")

    def __init__(self) -> None:
        self._base = self._delta = _EMPTY

    @property
    def array(self) -> np.ndarray:
        self._merge()
        return self._base

    def _merge(self) -> None:
        if len(self._delta):
            self._base = np.sort(np.concatenate((self._base, self._delta)), kind="stable")
            self._delta = _EMPTY

    def __len__(self) -> int:
        return len(self._base) + len(self._delta)

    def __iter__(self):
        return iter(self.array.tolist())

    def __contains__(self, handle) -> bool:
        batch = np.array([handle], dtype=np.int64)
        return bool(_present(self._base, batch)[1][0] or _present(self._delta, batch)[1][0])

    def update(self, handles) -> None:
        # Sort and drop repeats by hand: a bare ``np.unique`` (NumPy 2.4)
        # imports ``numpy.ma`` on first use, 1.6 MB of RSS in runs that
        # never needed it.
        batch = np.sort(np.asarray(handles, dtype=np.int64))
        new = np.ones(len(batch), dtype=bool)
        new[1:] = batch[1:] != batch[:-1]
        new &= ~_present(self._base, batch)[1]
        new &= ~_present(self._delta, batch)[1]
        if new.any():
            self._delta = np.sort(np.concatenate((self._delta, batch[new])), kind="stable")
            if 16 * len(self._delta) > len(self._base):
                self._merge()

    def difference_update(self, handles) -> None:
        batch = np.asarray(handles, dtype=np.int64)
        for half in ("_base", "_delta"):
            arr = getattr(self, half)
            slots, hit = _present(arr, batch)
            if hit.any():
                setattr(self, half, np.delete(arr, slots[hit]))

    def clear(self) -> None:
        self._base = self._delta = _EMPTY


class Storage:
    def __init__(self, replication_factor) -> None:
        self.record_ttl = HOST_TTL
        self.handles = HandleStore()
        # None = replicate every stored handle to every neighbor (the
        # original small-overlay behavior); an int caps the copies.
        self.replication_factor = replication_factor
        # Replicas of handles owned by other nodes, keyed by owner id —
        # promoted into ``handles`` if that owner dies ungracefully.
        self.handle_replicas: dict[str, HandleStore] = {}
        self._synced: set[str] = set()  # neighbors holding our full handle set

    # -- batched handle storage (registration-storm fast path) -------------
    def put_ids(self, ids):
        """Process: publish directory handles for freshly registered table
        rows. Handles whose points this node owns are stored locally; the
        rest are forwarded in per-destination sub-batches — one routed
        RPC per destination node, not one per endpoint."""
        handles = self.table.handles(np.asarray(ids, dtype=np.int64))
        stored, forward = self._store_ids(handles, 0)
        if forward is None:
            return ("stored", stored)
        reply = yield from forward
        return reply

    def _store_ids(self, handles, hops: int):
        """Store what we own: (how many, a process forwarding the rest or None)."""
        arr = np.asarray(handles, dtype=np.int64)
        ids = self.table.handle_ids(arr)
        own = self.table.in_zones(self.zones, ids).any(axis=0)
        mine = arr[own]
        if len(mine):
            self.handles.update(mine)
            self._m_handles.add(len(mine))
            self._replicate(tuple(mine.tolist()), self._replica_targets())
            self._maybe_split(len(arr))
        if own.all():
            return int(len(mine)), None
        if hops >= MAX_HOPS:
            raise RpcError(f"hop limit reached at {self.node_id}")
        return int(len(mine)), self._forward_ids(arr[~own], ids[~own], int(len(mine)), hops)

    def _forward_ids(self, rest: np.ndarray, rest_ids: np.ndarray,
                     stored: int, hops: int):
        """Process: route ``rest`` on per next hop; reply with the total stored."""
        rest_pts = self.table.coords[rest_ids].astype(np.float64)
        infos = list(self.neighbors.values())
        hop = next_hops(self.zones, [i.zones for i in infos], rest_pts)
        # One sub-batch per next hop, in order of each hop's first
        # handle, handles in batch order. On the wire the batch is a
        # tuple of ints and the point a tuple of floats: an array has
        # a ``size`` of its own, which ``RouteOp.size`` would read.
        # A handle with no hop, or whose hop is gone or fails, is not
        # stored: it is counted in ``handles.dropped``, not in the reply.
        hop_of, first = np.unique(hop, return_index=True)
        buckets = []
        for j, k in sorted(zip(first.tolist(), hop_of.tolist())):
            if k < 0:
                self._m_dropped.add(int(np.count_nonzero(hop < 0)))
                continue
            buckets.append((infos[k].node_id, tuple(rest_pts[j].tolist()),
                            tuple(rest[hop == k].tolist())))
        for node_id, point, batch in buckets:
            info = self.neighbors.get(node_id)
            if info is None:
                self._m_dropped.add(len(batch))
                continue
            fwd = RouteOp(point, "put_ids", batch, hops=hops + 1)
            try:
                reply = yield from self.rpc.call(info.ip, info.port,
                                                 "can.route", fwd)
            except (RpcTimeout, RpcError):
                self._m_dropped.add(len(batch))
                continue
            stored += int(reply[1])
        return ("stored", stored)

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

    def _on_replica_ids(self, payload: tuple, _src_ip, _src_port):
        owner_id, handles = payload
        batch = np.sort(np.asarray(handles, dtype=np.int64))  # sorted keys search faster
        # One copy per handle, filed under its latest owner: entries that
        # moved (shed, re-merged, taken over) leave the old owner's store.
        for other, copies in self.handle_replicas.items():
            if other != owner_id:
                copies.difference_update(batch)
        self.handle_replicas.setdefault(owner_id, HandleStore()).update(batch)
        self._m_replicas.add(len(handles))
        return None

    def _prune_handles(self) -> None:
        """Drop handles whose table row was unregistered or re-registered
        (generation bump) — one vectorized validity mask per store. A
        handle that is merely silent past ``record_ttl`` stays: its row
        is still registered, and a resumed keepalive revives it."""
        for store in [self.handles, *self.handle_replicas.values()]:
            store.difference_update(store.array[~self.table.valid_mask(store.array)])

    # -- liveness and zone contents --------------------------------------------
    def _live_ids(self, handles: np.ndarray) -> np.ndarray:
        """Table ids of the live entries among ``handles``. Liveness is
        one rule, read from the table when it is needed: the handle's
        generation still matches, the row is registered, and it was seen
        (registered or kept alive) within ``record_ttl`` — no expiry
        sweep has to run for a dead host to stop answering queries or
        counting toward a zone's load."""
        ids = self.table.handle_ids(handles[self.table.valid_mask(handles)])
        return ids[self.table.last_seen[ids] > self.sim.now - self.record_ttl]

    def _live_in(self, zones) -> tuple[np.ndarray, np.ndarray]:
        """Live entries' table ids, and which of ``zones`` holds each: one gather."""
        ids = self._live_ids(self.handles.array)
        return ids, self.table.in_zones(zones, ids)

    def _handle_records(self, point: Point, limit: int) -> tuple:
        """Build ResourceRecords for the ``limit`` live table handles
        nearest ``point`` — the only rows a query forces out of columnar
        form. Distance ranking is vectorized over the coords column."""
        ids = self._live_ids(self.handles.array)
        delta = self.table.coords[ids] - np.asarray(point, dtype=np.float64)
        d2 = (delta * delta).sum(axis=1)
        top = np.lexsort((ids, d2))[:limit]
        return tuple(self.table.record(int(ids[k])) for k in top)

    def _extract_handles(self, zone: Zone) -> tuple:
        """Remove and return the stored handles whose CAN coordinates
        fall inside ``zone`` — what a join grant, a split or a re-merge
        hands over."""
        arr = self.handles.array
        handles = arr[self.table.in_zones([zone], self.table.handle_ids(arr))[0]]
        self.handles.difference_update(handles)
        return tuple(handles.tolist())

    def zone_load(self, zone: Zone) -> int:
        """Live directory entries in one zone."""
        return int(self._live_in([zone])[1].sum())

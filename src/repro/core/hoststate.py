"""Struct-of-arrays host registry: the million-endpoint control plane.

The paper validates WAVNet at 7 sites / ~400 PlanetLab hosts, where
every host can afford a full object stack (driver, NAT box, L2 ports,
simulation processes). Pushing the rendezvous + CAN control plane to
10^5-10^6 *registered* endpoints is impossible at ~100 KB per idle
host, so registered-endpoint state is split from built hosts:
:class:`HostTable` is a struct-of-arrays table (numpy columns, one row
per endpoint) holding everything the control plane needs about a
registered endpoint: packed NAT mapping (public/private 2-tuples),
reachability endpoint, rendezvous assignment, CAN coordinates,
resource attributes, liveness epoch, the registered flag. No per-host
Process, socket, or L2 objects — an idle endpoint costs a table row
plus its name. Hosts that punch or move traffic are built eagerly by
the scenario (``WavnetEnvironment.add_host``) next to their row.

Rows are identified by a dense integer ``host_id``; cross-layer
references (CAN directory entries, replicas) use *handles* — the row id
packed with the row's registration generation — so a stale reference to
a re-registered or expired endpoint is detectable in O(1) and in bulk
with one vectorized mask.

The table is shared: in a rendezvous *fleet*, every server stores its
registrations in the same table tagged with its server index (the
``owner`` column), which is what lets the CAN layer compute per-zone
endpoint load with one vectorized containment test.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.resources import ConnectionInfo, ResourceRecord, ResourceSpec

__all__ = ["HostTable", "FLAG_REGISTERED"]

FLAG_REGISTERED = 1  # row currently admitted by a rendezvous server

_NAT_CODES = {t: i for i, t in enumerate(NatType)}
_NAT_TYPES = list(NatType)

_GEN_SHIFT = 32
_ID_MASK = (1 << _GEN_SHIFT) - 1
_INITIAL_CAPACITY = 256  # rows; columns double from here
_BELOW_ONE = np.nextafter(np.float32(1.0), np.float32(0.0))


class HostTable:
    """Struct-of-arrays registry of every known endpoint.

    One row per endpoint name; rows persist across registration loss
    (crash, expiry) so the *directory* state (virtual IP, last known NAT
    mapping) survives while the *registration* state
    (``FLAG_REGISTERED`` + ``owner``) carries the volatile
    admitted-by-a-server relationship. Re-registration bumps the row's
    ``generation``, invalidating any handle minted for the previous
    incarnation.
    """

    def __init__(self, sim, spec: Optional[ResourceSpec] = None) -> None:
        self.spec = spec or ResourceSpec()
        self._dims = self.spec.dims
        self._capacity = _INITIAL_CAPACITY
        self._n = 0
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._alloc(self._capacity)
        m = sim.metrics.scope("hosttable")
        self._m_registered = m.counter("registered")
        self._m_expired = m.counter("expired")
        self._g_rows = m.gauge("rows")

    # -- storage -------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        self.public_ip = np.zeros(capacity, dtype=np.uint32)
        self.public_port = np.zeros(capacity, dtype=np.uint16)
        self.private_ip = np.zeros(capacity, dtype=np.uint32)
        self.private_port = np.zeros(capacity, dtype=np.uint16)
        self.reach_ip = np.zeros(capacity, dtype=np.uint32)
        self.reach_port = np.zeros(capacity, dtype=np.uint16)
        self.rendezvous_ip = np.zeros(capacity, dtype=np.uint32)
        self.rendezvous_port = np.zeros(capacity, dtype=np.uint16)
        self.virtual_ip = np.zeros(capacity, dtype=np.uint32)
        self.nat_code = np.zeros(capacity, dtype=np.uint8)
        self.alloc_stride = np.zeros(capacity, dtype=np.uint16)
        self.flags = np.zeros(capacity, dtype=np.uint8)
        self.owner = np.full(capacity, -1, dtype=np.int16)
        self.region = np.full(capacity, -1, dtype=np.int16)
        self.generation = np.zeros(capacity, dtype=np.uint32)
        self.last_seen = np.full(capacity, -np.inf, dtype=np.float64)
        self.coords = np.zeros((capacity, self._dims), dtype=np.float32)
        self.attr_values = np.zeros((capacity, self._dims), dtype=np.float32)

    _COLUMNS = ("public_ip", "public_port", "private_ip", "private_port",
                "reach_ip", "reach_port", "rendezvous_ip", "rendezvous_port",
                "virtual_ip", "nat_code", "alloc_stride", "flags", "owner", "region",
                "generation", "last_seen", "coords", "attr_values")

    def _grow(self, need: int) -> None:
        capacity = self._capacity
        while capacity < need:
            capacity *= 2
        old = {c: getattr(self, c) for c in self._COLUMNS}
        self._alloc(capacity)
        for c, arr in old.items():
            getattr(self, c)[: len(arr)] = arr
        self._capacity = capacity

    def __len__(self) -> int:
        return self._n

    @property
    def registered_count(self) -> int:
        return int(np.count_nonzero(
            self.flags[: self._n] & FLAG_REGISTERED))

    @property
    def nbytes(self) -> int:
        """Steady-state array bytes (excludes the name index dict)."""
        return sum(getattr(self, c).nbytes for c in self._COLUMNS)

    # -- identity ------------------------------------------------------
    def lookup(self, name: str) -> int:
        """Row id for ``name``; -1 if the table has never seen it."""
        return self._ids.get(name, -1)

    def name_of(self, host_id: int) -> str:
        return self._names[host_id]

    # -- handles (generation-checked cross-layer references) -----------
    def handle(self, host_id: int) -> int:
        return host_id | (int(self.generation[host_id]) << _GEN_SHIFT)

    def handles(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`handle` for a whole array of row ids, as int64."""
        return ids | (self.generation[ids].astype(np.int64) << _GEN_SHIFT)

    def handle_ids(self, handles: np.ndarray) -> np.ndarray:
        return (handles & _ID_MASK).astype(np.int64)

    def valid_mask(self, handles: np.ndarray) -> np.ndarray:
        """Vectorized: which handles still name a live registration?"""
        if len(handles) == 0:
            return np.zeros(0, dtype=bool)
        handles = np.asarray(handles, dtype=np.int64)
        ids = handles & _ID_MASK
        gens = handles >> _GEN_SHIFT
        ok = ids < self._n
        safe = np.where(ok, ids, 0)
        ok &= self.generation[safe] == gens
        ok &= (self.flags[safe] & FLAG_REGISTERED) != 0
        return ok

    # -- registration --------------------------------------------------
    def ensure_row(self, name: str) -> int:
        """Create (or find) the directory row for ``name`` without
        registering it — scenario setup reserves rows this way."""
        host_id = self._ids.get(name)
        if host_id is None:
            host_id = self._n
            if host_id >= self._capacity:
                self._grow(host_id + 1)
            self._ids[name] = host_id
            self._names.append(name)
            self._n += 1
            self._g_rows.set(self._n)
        return host_id

    def ensure_rows(self, names) -> np.ndarray:
        """:meth:`ensure_row` for a batch of names, as int64 row ids.
        ``_names`` grows one ``append`` at a time, as row by row: the
        storm's ``steady_state_bytes`` counts its over-allocation."""
        new = [n for n in dict.fromkeys(names) if n not in self._ids]
        if new:
            n = self._n + len(new)
            if n > self._capacity:
                self._grow(n)
            self._ids.update(zip(new, range(self._n, n)))
            self._n = n
            for name in new:
                self._names.append(name)
            self._g_rows.set(self._n)
        return np.fromiter(map(self._ids.__getitem__, names),
                           dtype=np.int64, count=len(names))

    def register(self, name: str, conn: ConnectionInfo, attrs: dict,
                 reach: tuple, now: float, owner: int = -1,
                 region: int = -1) -> int:
        """Admit (or re-admit) ``name``; returns its row id. Bumps the
        generation so handles minted for the previous registration go
        stale."""
        i = self.ensure_row(name)
        self.public_ip[i] = conn.public_ip.value
        self.public_port[i] = conn.public_port
        self.private_ip[i] = conn.private_ip.value
        self.private_port[i] = conn.private_port
        self.rendezvous_ip[i] = conn.rendezvous_ip.value
        self.rendezvous_port[i] = conn.rendezvous_port
        self.reach_ip[i] = reach[0].value
        self.reach_port[i] = reach[1]
        self.nat_code[i] = _NAT_CODES[conn.nat_type]
        self.alloc_stride[i] = conn.alloc_stride
        self.set_attrs(i, attrs)
        self.last_seen[i] = now
        self.owner[i] = owner
        if region >= 0:
            self.region[i] = region
        self.flags[i] |= FLAG_REGISTERED
        self.generation[i] += 1
        self._m_registered.add()
        return i

    def register_batch(self, names: tuple, public_ip: np.ndarray,
                       public_port: np.ndarray, private_ip: np.ndarray,
                       private_port: np.ndarray, nat_code: np.ndarray,
                       attr_values: np.ndarray, rendezvous: tuple,
                       reach: tuple, now: float, owner: int = -1,
                       region: int = -1) -> np.ndarray:
        """Vectorized bulk admission (the registration-storm fast path).

        ``names`` is a tuple of endpoint names; the array arguments are
        parallel per-endpoint columns; ``rendezvous``/``reach`` are
        shared (IPv4Address, port) endpoints. Returns the row ids.
        """
        ids = self.ensure_rows(names)
        self.public_ip[ids] = public_ip
        self.public_port[ids] = public_port
        self.private_ip[ids] = private_ip
        self.private_port[ids] = private_port
        self.nat_code[ids] = nat_code
        self.attr_values[ids] = attr_values
        self.coords[ids] = self._to_coords(attr_values)
        self.rendezvous_ip[ids] = rendezvous[0].value
        self.rendezvous_port[ids] = rendezvous[1]
        self.reach_ip[ids] = reach[0].value
        self.reach_port[ids] = reach[1]
        self.last_seen[ids] = now
        self.owner[ids] = owner
        if region >= 0:
            self.region[ids] = region
        self.flags[ids] |= FLAG_REGISTERED
        self.generation[ids] += 1
        self._m_registered.add(len(ids))
        return ids

    def _to_coords(self, attr_values: np.ndarray) -> np.ndarray:
        """Normalize raw attribute values into CAN space (vectorized
        :meth:`ResourceSpec.to_point`)."""
        lows = np.array([lo for _n, lo, _hi in self.spec.attributes],
                        dtype=np.float32)
        highs = np.array([hi for _n, _lo, hi in self.spec.attributes],
                         dtype=np.float32)
        x = (np.asarray(attr_values, dtype=np.float32) - lows) / (highs - lows)
        # Below 1.0 in float32 (1.0 - 1e-9 rounds up to it): no zone [lo, hi) holds 1.0.
        return np.clip(x, 0.0, _BELOW_ONE)

    def set_attrs(self, host_id: int, attrs: dict) -> None:
        """Single-row attribute update: project the named attributes
        into the float32 column and re-derive the CAN coordinates."""
        for k, (name, _lo, _hi) in enumerate(self.spec.attributes):
            if name in attrs:
                self.attr_values[host_id, k] = float(attrs[name])
        self.coords[host_id] = self._to_coords(self.attr_values[host_id])

    def attrs_of(self, host_id: int) -> dict:
        return {name: float(self.attr_values[host_id, k])
                for k, (name, _lo, _hi) in enumerate(self.spec.attributes)}

    def touch(self, host_id: int, now: float,
              reach: Optional[tuple] = None) -> None:
        self.last_seen[host_id] = now
        if reach is not None:
            self.reach_ip[host_id] = reach[0].value
            self.reach_port[host_id] = reach[1]

    def touch_names(self, names, now: float) -> int:
        """Batched keepalive: bump liveness epochs for every known name;
        returns how many were still-registered rows."""
        ids = [self._ids[n] for n in names if n in self._ids]
        if not ids:
            return 0
        arr = np.asarray(ids, dtype=np.int64)
        live = arr[(self.flags[arr] & FLAG_REGISTERED) != 0]
        self.last_seen[live] = now
        return int(len(live))

    # -- registration loss ---------------------------------------------
    def unregister(self, host_id: int) -> None:
        """Drop the registration; directory state stays in the row."""
        self.flags[host_id] &= np.uint8(~FLAG_REGISTERED & 0xFF)
        self.owner[host_id] = -1

    def release_owner(self, owner: int) -> list[str]:
        """A server lost its volatile registry (crash/stop): every row it
        owned becomes unregistered. Returns the affected names."""
        mask = (self.owner[: self._n] == owner) & \
            ((self.flags[: self._n] & FLAG_REGISTERED) != 0)
        ids = np.nonzero(mask)[0]
        self.flags[ids] &= np.uint8(~FLAG_REGISTERED & 0xFF)
        self.owner[ids] = -1
        return [self._names[i] for i in ids]

    def expire(self, horizon: float, owner: Optional[int] = None) -> list[str]:
        """Unregister rows whose liveness epoch predates ``horizon``.
        Returns the expired names."""
        n = self._n
        mask = ((self.flags[:n] & FLAG_REGISTERED) != 0) \
            & (self.last_seen[:n] < horizon)
        if owner is not None:
            mask &= self.owner[:n] == owner
        ids = np.nonzero(mask)[0]
        if len(ids):
            self.flags[ids] &= np.uint8(~FLAG_REGISTERED & 0xFF)
            self.owner[ids] = -1
            self._m_expired.add(len(ids))
        return [self._names[i] for i in ids]

    def mark_down(self, names) -> int:
        """Fault verb support: endpoints went dark. Their registrations
        drop immediately (the storm re-registers them later); row data
        survives so reconnection needs no side channel."""
        ids = np.fromiter({self._ids[n] for n in names if n in self._ids}, dtype=np.int64)
        live = ids[(self.flags[ids] & FLAG_REGISTERED) != 0]
        self.flags[live] &= np.uint8(~FLAG_REGISTERED & 0xFF)
        self.owner[live] = -1
        return len(live)

    # -- selection (vectorized) ----------------------------------------
    def registered_ids(self, owner: Optional[int] = None) -> np.ndarray:
        n = self._n
        mask = (self.flags[:n] & FLAG_REGISTERED) != 0
        if owner is not None:
            mask &= self.owner[:n] == owner
        return np.nonzero(mask)[0]

    def names_of(self, ids: np.ndarray) -> list[str]:
        return [self._names[int(i)] for i in ids]

    def names_in_region(self, region: int,
                        registered_only: bool = True) -> list[str]:
        n = self._n
        mask = self.region[:n] == region
        if registered_only:
            mask &= (self.flags[:n] & FLAG_REGISTERED) != 0
        return [self._names[i] for i in np.nonzero(mask)[0]]

    def in_zones(self, zones, ids: np.ndarray) -> np.ndarray:
        """``[j, i]``: row ``ids[i]``'s CAN coordinates fall in
        ``zones[j]`` — the one containment test, one gather per call.
        Float32 bounds: what a float32 point compares a float against."""
        pts = np.ascontiguousarray(self.coords[ids].T)
        lows = np.array([z.lows for z in zones], dtype=np.float32).reshape(-1, self._dims)
        highs = np.array([z.highs for z in zones], dtype=np.float32).reshape(-1, self._dims)
        mask = np.ones((len(zones), len(ids)), dtype=bool)
        for d in range(self._dims):
            mask &= pts[d] >= lows[:, d, None]
            mask &= pts[d] < highs[:, d, None]
        return mask

    # -- record / connection-info reconstruction -----------------------
    def connection_info(self, host_id: int) -> ConnectionInfo:
        i = host_id
        return ConnectionInfo(
            rendezvous_ip=IPv4Address(int(self.rendezvous_ip[i])),
            rendezvous_port=int(self.rendezvous_port[i]),
            public_ip=IPv4Address(int(self.public_ip[i])),
            public_port=int(self.public_port[i]),
            private_ip=IPv4Address(int(self.private_ip[i])),
            private_port=int(self.private_port[i]),
            nat_type=_NAT_TYPES[int(self.nat_code[i])],
            alloc_stride=int(self.alloc_stride[i]),
            # Freshest externally observed mapping: the reach endpoint is
            # refreshed by every register/keepalive, so it is the best
            # prediction base a broker can hand out.
            observed_port=int(self.reach_port[i]),
        )

    def record(self, host_id: int) -> ResourceRecord:
        """Materialize a full ResourceRecord for one row (only done for
        the handful of rows a query actually returns)."""
        return ResourceRecord(
            host_name=self.name_of(host_id),
            point=tuple(float(x) for x in self.coords[host_id]),
            attrs=self.attrs_of(host_id),
            conn=self.connection_info(host_id),
        )

    def __repr__(self) -> str:
        return (f"HostTable(rows={self._n}, "
                f"registered={self.registered_count})")

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.resources import ConnectionInfo, ResourceRecord, ResourceSpec

__all__ = ["FLAG_REGISTERED", "HostTable", "Registration", "SPEC"]

FLAG_REGISTERED = 1  # row currently admitted by a rendezvous server
_UNREGISTERED = np.uint8(~FLAG_REGISTERED & 0xFF)

# The resource attributes every row carries, in column order: the one
# place that order is decided.
SPEC = ResourceSpec()
_LOWS = np.array([lo for _n, lo, _hi in SPEC.attributes], dtype=np.float32)
_HIGHS = np.array([hi for _n, _lo, hi in SPEC.attributes], dtype=np.float32)

_NAT_CODES = {t: i for i, t in enumerate(NatType)}
_NAT_TYPES = list(NatType)

_GEN_SHIFT = 32
_ID_MASK = (1 << _GEN_SHIFT) - 1
_INITIAL_CAPACITY = 256  # rows; columns double from here
_BELOW_ONE = np.nextafter(np.float32(1.0), np.float32(0.0))


def _to_coords(attr_values: np.ndarray) -> np.ndarray:
    """Normalize raw attribute values into CAN space (vectorized
    :meth:`ResourceSpec.to_point`)."""
    x = (np.asarray(attr_values, dtype=np.float32) - _LOWS) / (_HIGHS - _LOWS)
    # Below 1.0 in float32 (1.0 - 1e-9 rounds up to it): no zone [lo, hi) holds 1.0.
    return np.clip(x, 0.0, _BELOW_ONE)


@dataclass(frozen=True)
class Registration:
    """The one ``rvz.register`` body: parallel per-endpoint columns in
    one envelope, ``attr_values`` rows in :data:`SPEC`'s order. A built
    host registers as a batch of one (:meth:`of`); a storm lane sends
    hundreds of its region's endpoints at once. The server stamps its
    own address as every row's rendezvous and the datagram's source as
    every row's reach endpoint — what a concentrator re-registering a
    site after an outage looks like."""

    names: tuple
    public_ip: np.ndarray
    public_port: np.ndarray
    private_ip: np.ndarray
    private_port: np.ndarray
    nat_code: np.ndarray
    alloc_stride: np.ndarray
    attr_values: np.ndarray
    region: int = -1  # -1: keep the rows' recorded region

    @classmethod
    def of(cls, name: str, conn: ConnectionInfo, attrs: dict) -> "Registration":
        """One host's registration; an attribute ``attrs`` lacks reads 0."""
        return cls(
            names=(name,),
            public_ip=np.array([conn.public_ip.value], dtype=np.uint32),
            public_port=np.array([conn.public_port], dtype=np.uint16),
            private_ip=np.array([conn.private_ip.value], dtype=np.uint32),
            private_port=np.array([conn.private_port], dtype=np.uint16),
            nat_code=np.array([_NAT_CODES[conn.nat_type]], dtype=np.uint8),
            alloc_stride=np.array([conn.alloc_stride], dtype=np.uint16),
            attr_values=np.array([[float(attrs.get(n, 0.0)) for n in SPEC.names()]],
                                 dtype=np.float32))

    def __len__(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        return 24 + 40 * len(self.names)


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

    def __init__(self, sim) -> None:
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
        self.coords = np.zeros((capacity, SPEC.dims), dtype=np.float32)
        self.attr_values = np.zeros((capacity, SPEC.dims), dtype=np.float32)

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
    def ensure_rows(self, names) -> np.ndarray:
        """Create (or find) the directory rows for ``names`` without
        registering them, as int64 row ids — scenario setup reserves
        rows this way. ``_names`` grows one ``append`` at a time: the
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

    def register(self, reg: Registration, rendezvous: tuple, reach: tuple,
                 now: float, owner: int = -1) -> np.ndarray:
        """Admit (or re-admit) every endpoint of ``reg``, one vectorized
        write per column; returns the row ids. ``rendezvous`` and
        ``reach`` are (IPv4Address, port) endpoints the batch shares.
        Bumps each row's generation so handles minted for its previous
        registration go stale."""
        ids = self.ensure_rows(reg.names)
        self.public_ip[ids] = reg.public_ip
        self.public_port[ids] = reg.public_port
        self.private_ip[ids] = reg.private_ip
        self.private_port[ids] = reg.private_port
        self.nat_code[ids] = reg.nat_code
        self.alloc_stride[ids] = reg.alloc_stride
        self.attr_values[ids] = reg.attr_values
        self.coords[ids] = _to_coords(reg.attr_values)
        self.rendezvous_ip[ids] = rendezvous[0].value
        self.rendezvous_port[ids] = rendezvous[1]
        self.reach_ip[ids] = reach[0].value
        self.reach_port[ids] = reach[1]
        self.last_seen[ids] = now
        self.owner[ids] = owner
        if reg.region >= 0:
            self.region[ids] = reg.region
        self.flags[ids] |= FLAG_REGISTERED
        self.generation[ids] += 1
        self._m_registered.add(len(ids))
        return ids

    def attrs_of(self, host_id: int) -> dict:
        return {name: float(self.attr_values[host_id, k])
                for k, name in enumerate(SPEC.names())}

    def touch(self, names, now: float, reach: tuple, owner: int) -> int:
        """Keepalive: every named row ``owner`` holds a live registration
        for gets its liveness epoch bumped and its reach endpoint set to
        ``reach``, the NAT mapping the keepalive rode. Returns how many
        rows that was."""
        ids = np.fromiter((self._ids[n] for n in names if n in self._ids),
                          dtype=np.int64)
        live = ids[((self.flags[ids] & FLAG_REGISTERED) != 0)
                   & (self.owner[ids] == owner)]
        self.last_seen[live] = now
        self.reach_ip[live] = reach[0].value
        self.reach_port[live] = reach[1]
        return len(live)

    # -- registration loss ---------------------------------------------
    def _unregister(self, ids: np.ndarray) -> None:
        """Drop the registrations; directory state stays in the rows."""
        self.flags[ids] &= _UNREGISTERED
        self.owner[ids] = -1

    def release_owner(self, owner: int) -> list[str]:
        """A server lost its volatile registry (crash/stop): every row it
        owned becomes unregistered. Returns the affected names."""
        mask = (self.owner[: self._n] == owner) & \
            ((self.flags[: self._n] & FLAG_REGISTERED) != 0)
        ids = np.nonzero(mask)[0]
        self._unregister(ids)
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
            self._unregister(ids)
            self._m_expired.add(len(ids))
        return [self._names[i] for i in ids]

    def mark_down(self, names) -> int:
        """Fault verb support: endpoints went dark. Their registrations
        drop immediately (the storm re-registers them later); row data
        survives so reconnection needs no side channel."""
        ids = np.fromiter({self._ids[n] for n in names if n in self._ids}, dtype=np.int64)
        live = ids[(self.flags[ids] & FLAG_REGISTERED) != 0]
        self._unregister(live)
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
        lows = np.array([z.lows for z in zones], dtype=np.float32).reshape(-1, SPEC.dims)
        highs = np.array([z.highs for z in zones], dtype=np.float32).reshape(-1, SPEC.dims)
        mask = np.ones((len(zones), len(ids)), dtype=bool)
        for d in range(SPEC.dims):
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

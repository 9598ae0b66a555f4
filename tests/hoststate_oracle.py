"""The row-at-a-time registration the HostTable used to have: the
differential oracle for the one vectorized ``HostTable.register``.

``ScalarHostTable`` shares the table's storage (columns, name index,
counters) and nothing of the write path: rows are admitted one name at
a time, attributes are projected one by one from a dict in the
attribute spec's order, and the coordinates are normalized from its
own copy of the ranges. Every column, generation, handle and counter
the vectorized path leaves behind must equal what this one does.
"""

from __future__ import annotations

import numpy as np

from repro.core.hoststate import FLAG_REGISTERED, HostTable
from repro.nat.types import NatType
from repro.overlay.resources import ConnectionInfo, ResourceSpec

__all__ = ["ScalarHostTable"]

_ATTRIBUTES = ResourceSpec().attributes
_NAT_CODES = {t: i for i, t in enumerate(NatType)}


class ScalarHostTable(HostTable):
    def ensure_row(self, name: str) -> int:
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

    def register(self, name: str, conn: ConnectionInfo, attrs: dict,
                 reach: tuple, now: float, owner: int = -1,
                 region: int = -1) -> int:
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

    def set_attrs(self, host_id: int, attrs: dict) -> None:
        for k, (name, _lo, _hi) in enumerate(_ATTRIBUTES):
            if name in attrs:
                self.attr_values[host_id, k] = float(attrs[name])
        lows = np.array([lo for _n, lo, _hi in _ATTRIBUTES], dtype=np.float32)
        highs = np.array([hi for _n, _lo, hi in _ATTRIBUTES], dtype=np.float32)
        x = (self.attr_values[host_id] - lows) / (highs - lows)
        self.coords[host_id] = np.clip(
            x, 0.0, np.nextafter(np.float32(1.0), np.float32(0.0)))

"""Load-balanced rendezvous fleet: consistent-hash endpoint assignment.

The paper runs a handful of rendezvous servers with clients statically
pointed at one of them. At 10^5-10^6 endpoints the assignment itself
becomes a control-plane concern: endpoints must spread across N servers,
an endpoint must map to the *same* server across reconnects (so its
directory row keeps one owner), and a server crash must only remap the
endpoints it owned.

:class:`HashRing` is the standard consistent-hash ring (crc32 of
``server-name#vnode``, 64 virtual nodes per server) over server
*names*. A driver whose primary stops answering walks
``ring.order(name)[1:]``, so a dead server's endpoints drain to the
survivors that inherit its arcs — and the mass reconnect that follows
is exactly the registration-storm scenario. Per-server load is
published by :meth:`WavnetEnvironment.fleet_load
<repro.scenarios.wavnet_env.WavnetEnvironment.fleet_load>`.
"""

from __future__ import annotations

import bisect
from zlib import crc32

import numpy as np

__all__ = ["HashRing"]

VNODES = 64


class HashRing:
    """The consistent-hash ring, built from server *names* only, so
    the primary/backup ordering needs no live server objects."""

    def __init__(self, names: list[str]) -> None:
        if not names:
            raise ValueError("ring needs at least one server name")
        self.names = list(names)
        self._ring: list[tuple[int, int]] = []  # (hash, server_index)
        for idx, name in enumerate(self.names):
            for v in range(VNODES):
                self._ring.append((crc32(f"{name}#{v}".encode()), idx))
        self._ring.sort()
        self._keys = [h for h, _ in self._ring]
        self._key_array, self._owner_array = np.array(self._ring, dtype=np.int64).T

    def index(self, name: str) -> int:
        """Primary server index for ``name``: the first ring vnode
        clockwise of the name's hash."""
        h = crc32(name.encode())
        return self._ring[bisect.bisect_right(self._keys, h)
                          % len(self._ring)][1]

    def indices(self, names) -> np.ndarray:
        """:meth:`index` of each name, one ``searchsorted`` for all."""
        hashes = np.fromiter(map(crc32, map(str.encode, names)),
                             dtype=np.int64, count=len(names))
        slots = np.searchsorted(self._key_array, hashes, side="right")
        return self._owner_array[slots % len(self._ring)]

    def order(self, name: str) -> list[int]:
        """All server indices in ring-successor order from ``name``'s
        hash — the primary first, then the failover sequence a crash of
        each predecessor would fall through to."""
        h = crc32(name.encode())
        start = bisect.bisect_right(self._keys, h) % len(self._ring)
        seen: set[int] = set()
        out: list[int] = []
        for step in range(len(self._ring)):
            idx = self._ring[(start + step) % len(self._ring)][1]
            if idx not in seen:
                seen.add(idx)
                out.append(idx)
                if len(out) == len(self.names):
                    break
        return out

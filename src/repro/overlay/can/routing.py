"""Greedy CAN routing: the next-hop rule and the ``can.route`` envelope.

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
from repro.overlay.rpc import RpcError
from repro.overlay.space import Point, zone_distances

CAN_PORT = 4000
MAX_HOPS = 64


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
class RouteOp:
    """An operation being routed to the owner of ``point``."""

    point: Point
    op: str  # 'get' | 'join' | 'put_ids'
    body: Any
    hops: int = 0

    @property
    def size(self) -> int:
        return 24 + 8 * len(self.point) + (getattr(self.body, "size", 16) or 16)


def next_hops(own: list, others: list, pts: np.ndarray) -> np.ndarray:
    """Greedy next hop for every row of ``pts`` (``(m, dims)``): the
    index into ``others`` (each neighbor's zone list, in order) of the
    neighbor to forward to, ``-1`` where none is strictly closer than
    ``own`` (our zones).

    One :func:`zone_distances` call over our zones and every
    neighbor's; then the rule, a loop over neighbors of vector ops
    over points: start from our own distance, walk the neighbors in
    order, take one only when it beats the best so far by more than
    1e-15 — so of several equally close, the first wins.
    """
    zones = [*own, *(z for theirs in others for z in theirs)]
    dist = zone_distances([z.lows for z in zones], [z.highs for z in zones], pts)
    # Per-owner minimum over its columns; no zones = infinitely far.
    stop = len(own)
    best_d = dist[:, :stop].min(axis=1, initial=np.inf)
    hops = np.full(len(dist), -1, dtype=np.int64)
    for k, theirs in enumerate(others):
        start, stop = stop, stop + len(theirs)
        d = dist[:, start:stop].min(axis=1, initial=np.inf)
        closer = d < best_d - 1e-15
        best_d = np.where(closer, d, best_d)
        hops[closer] = k
    return hops


class Routing:
    def owns(self, point: Point) -> bool:
        return any(z.contains(point) for z in self.zones)

    def _next_hop(self, point: Point) -> Optional[NeighborInfo]:
        infos = list(self.neighbors.values())
        hop = int(next_hops(self.zones, [i.zones for i in infos],
                            np.asarray([point], dtype=np.float64))[0])
        return None if hop < 0 else infos[hop]

    def route(self, op: str, point: Point, body: Any):
        """Process: execute ``op`` at the owner of ``point``; returns result."""
        request = RouteOp(point, op, body)
        if self.owns(point):
            return self._execute(request)
        result = yield from self._forward(request, 5.0)
        return result

    def _forward(self, op: RouteOp, timeout: float = 2.0):
        """Process: hand ``op`` to the next greedy hop; returns its reply."""
        nxt = self._next_hop(op.point)
        if nxt is None:
            raise RpcError(f"routing dead end at {self.node_id} for {op.point}")
        result = yield from self.rpc.call(nxt.ip, nxt.port, "can.route", op,
                                          timeout=timeout)
        return result

    def _on_route(self, op: RouteOp, _src_ip, _src_port):
        if op.op == "put_ids":
            # Batched handle stores partition themselves: every hop keeps
            # what it owns and forwards per-destination sub-batches.
            stored, forward = self._store_ids(op.body, op.hops)
            return ("stored", stored) if forward is None else forward
        if self.owns(op.point):
            return self._execute(op)
        if op.hops >= MAX_HOPS:
            raise RpcError(f"hop limit reached at {self.node_id}")
        return self._forward(RouteOp(op.point, op.op, op.body, hops=op.hops + 1))

    def _execute(self, op: RouteOp):
        """Run ``op`` here, at the owner of its point."""
        if op.op == "get":
            return self._handle_records(op.point, int(op.body) if op.body else 16)
        if op.op == "join":
            return self._admit(op.body)
        raise RpcError(f"unknown CAN op {op.op!r}")

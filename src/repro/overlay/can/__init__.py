"""CAN node: zone ownership, greedy routing, join/leave, resource store.
One mixin per seam: :mod:`.membership`, :mod:`.storage`, :mod:`.routing`."""

from __future__ import annotations

from typing import Optional

from repro.core.hoststate import SPEC
from repro.net.addresses import IPv4Address
from repro.overlay.can.membership import Membership
from repro.overlay.can.routing import CAN_PORT, NeighborInfo, Routing
from repro.overlay.can.storage import HOST_TTL, HandleStore, Storage
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.sim.lifecycle import Component

__all__ = ["CanNode", "HandleStore", "NeighborInfo", "CAN_PORT", "HOST_TTL"]


class CanNode(Membership, Storage, Routing, Component):
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
        self.dims = SPEC.dims
        self.ip: IPv4Address = host.stack.ips[0]
        # The HostTable every overlay node shares: directory entries are
        # generation-checked *handles* to its rows.
        self.table = table
        Membership.__init__(self, hot_zone_limit)
        Storage.__init__(self, replication_factor)
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

    # -- lifecycle ------------------------------------------------------
    def _on_stop(self) -> None:
        # No graceful handover here (that is :meth:`leave`, a protocol
        # action); a stopped node just goes dark and rejoins fresh.
        self._go_dark("stopped")
        self.rpc.shutdown()
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

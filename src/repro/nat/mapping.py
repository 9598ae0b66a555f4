"""NAT mapping table with idle timeouts.

A mapping binds an internal (ip, port) — plus the destination, for
symmetric NATs — to an external port. Mappings expire after an idle
timeout; *any* traffic in either direction refreshes them, which is what
makes the paper's 2-byte CONNECT_PULSE keepalive sufficient.

Filtering state (which remote endpoints may send inbound) is tracked per
mapping as the set of endpoints the internal host has sent to.
"""

from __future__ import annotations

from typing import Optional

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address

__all__ = ["MappingTable", "NatMapping"]


class NatMapping:
    """One NAT binding."""

    __slots__ = (
        "internal_ip",
        "internal_port",
        "external_port",
        "dest_key",
        "last_used",
        "contacted_ips",
        "contacted_endpoints",
    )

    def __init__(
        self,
        internal_ip: IPv4Address,
        internal_port: int,
        external_port: int,
        dest_key: Optional[tuple[IPv4Address, int]],
        now: float,
    ) -> None:
        self.internal_ip = internal_ip
        self.internal_port = internal_port
        self.external_port = external_port
        self.dest_key = dest_key  # None for cone NATs
        self.last_used = now
        self.contacted_ips: set[IPv4Address] = set()
        self.contacted_endpoints: set[tuple[IPv4Address, int]] = set()

    def touch(self, now: float) -> None:
        self.last_used = now

    def note_outbound(self, dst_ip: IPv4Address, dst_port: int, now: float) -> None:
        self.contacted_ips.add(dst_ip)
        self.contacted_endpoints.add((dst_ip, dst_port))
        self.last_used = now

    def allows_inbound(self, nat_type: NatType, src_ip: IPv4Address, src_port: int) -> bool:
        if nat_type is NatType.FULL_CONE:
            return True
        if nat_type is NatType.RESTRICTED_CONE:
            return src_ip in self.contacted_ips
        # Port-restricted and symmetric both filter on (ip, port).
        return (src_ip, src_port) in self.contacted_endpoints


class MappingTable:
    """All bindings of one NAT box, with idle expiry and port allocation."""

    def __init__(self, nat_type: NatType, timeout: float, first_port: int = 20000,
                 port_rng=None, metrics=None) -> None:
        self.nat_type = nat_type
        self.timeout = timeout
        self._next_port = first_port
        # External ports are drawn from ``port_rng`` when one is given
        # (a random-allocating symmetric NAT), else from a counter: cone
        # NATs, and the predictable symmetric kind Ford et al. show can
        # be traversed by port prediction.
        self._port_rng = port_rng
        # outbound lookup: (int_ip, int_port[, dst]) -> mapping
        self._by_internal: dict[tuple, NatMapping] = {}
        # inbound lookup: external port -> mapping
        self._by_external: dict[int, NatMapping] = {}
        self.expired_count = 0
        self.allocated_count = 0
        # Optional MetricsScope (e.g. "nat.<box>.udp"): allocation/expiry
        # counters plus a live-binding gauge, for keepalive ablations.
        if metrics is not None:
            self._m_allocated = metrics.counter("mappings.allocated")
            self._m_expired = metrics.counter("mappings.expired")
            self._m_flushed = metrics.counter("mappings.flushed")
            self._m_bindings = metrics.gauge("bindings")
        else:
            self._m_allocated = self._m_expired = self._m_flushed = self._m_bindings = None

    def _internal_key(
        self, ip: IPv4Address, port: int, dst_ip: IPv4Address, dst_port: int
    ) -> tuple:
        if self.nat_type is NatType.SYMMETRIC:
            return (ip, port, dst_ip, dst_port)
        return (ip, port)

    def _expire_if_idle(self, mapping: NatMapping, now: float) -> bool:
        if now - mapping.last_used > self.timeout:
            self._drop(mapping)
            self.expired_count += 1
            if self._m_expired is not None:
                self._m_expired.add()
            return True
        return False

    def _drop(self, mapping: NatMapping) -> None:
        self._by_external.pop(mapping.external_port, None)
        for key, m in list(self._by_internal.items()):
            if m is mapping:
                del self._by_internal[key]
        if self._m_bindings is not None:
            self._m_bindings.set(len(self._by_external))

    def flush(self) -> int:
        """Drop every binding at once — what a NAT reboot does to the
        hosts behind it. Returns the number of bindings lost."""
        n = len(self._by_external)
        self._by_internal.clear()
        self._by_external.clear()
        if self._m_flushed is not None:
            self._m_flushed.add(n)
            self._m_bindings.set(0)
        return n

    def _alloc_port(self) -> int:
        if self._port_rng is not None:
            while True:
                port = int(self._port_rng.integers(20000, 60000))
                if port not in self._by_external:
                    return port
        while self._next_port in self._by_external:
            self._next_port += 1
        port = self._next_port
        self._next_port += 1
        return port

    def outbound(
        self,
        int_ip: IPv4Address,
        int_port: int,
        dst_ip: IPv4Address,
        dst_port: int,
        now: float,
    ) -> NatMapping:
        """Find-or-create the mapping for an outbound flow and record the
        contacted endpoint."""
        key = self._internal_key(int_ip, int_port, dst_ip, dst_port)
        mapping = self._by_internal.get(key)
        if mapping is not None and self._expire_if_idle(mapping, now):
            mapping = None
        if mapping is None:
            mapping = NatMapping(int_ip, int_port, self._alloc_port(),
                                 key[2:] if self.nat_type is NatType.SYMMETRIC else None,
                                 now)
            self._by_internal[key] = mapping
            self._by_external[mapping.external_port] = mapping
            self.allocated_count += 1
            if self._m_allocated is not None:
                self._m_allocated.add()
                self._m_bindings.set(len(self._by_external))
        mapping.note_outbound(dst_ip, dst_port, now)
        return mapping

    def inbound(
        self, ext_port: int, src_ip: IPv4Address, src_port: int, now: float
    ) -> Optional[NatMapping]:
        """Mapping for an inbound datagram, or None if filtered/absent."""
        mapping = self._by_external.get(ext_port)
        if mapping is None or self._expire_if_idle(mapping, now):
            return None
        if self.nat_type is NatType.SYMMETRIC and mapping.dest_key != (src_ip, src_port):
            return None
        if not mapping.allows_inbound(self.nat_type, src_ip, src_port):
            return None
        mapping.touch(now)
        return mapping

    def active_count(self, now: float) -> int:
        return sum(1 for m in self._by_external.values() if now - m.last_used <= self.timeout)

    def __len__(self) -> int:
        return len(self._by_external)

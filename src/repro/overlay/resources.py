"""Host resource descriptors and their mapping into the CAN key space.

The paper stores each host's *state* — "a multi-dimensional vector" of
attributes such as available CPU and memory — at the CAN node whose zone
covers that vector (§II.B, Fig 3). :class:`ResourceSpec` defines the
attribute schema and normalization; :class:`ResourceRecord` is what a
query answers with, bundling the resource state with the connection
information a peer needs to reach the host (rendezvous address + NAT
2-tuple, exactly the fields listed in the paper). The directory itself
stores table handles (:mod:`repro.overlay.can`); records are rebuilt
from the :class:`~repro.core.hoststate.HostTable` row per answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.space import Point

__all__ = ["ConnectionInfo", "ResourceRecord", "ResourceSpec"]


@dataclass(frozen=True)
class ResourceSpec:
    """Attribute schema: names and (min, max) normalization ranges."""

    attributes: tuple = (("cpu_ghz", 0.0, 16.0), ("mem_mb", 0.0, 32768.0))

    @property
    def dims(self) -> int:
        return len(self.attributes)

    def to_point(self, **values: float) -> Point:
        coords = []
        for name, lo, hi in self.attributes:
            if name not in values:
                raise KeyError(f"missing attribute {name!r}")
            x = (float(values[name]) - lo) / (hi - lo)
            coords.append(min(max(x, 0.0), 1.0 - 1e-9))
        extra = set(values) - {name for name, _lo, _hi in self.attributes}
        if extra:
            raise KeyError(f"unknown attributes {sorted(extra)}")
        return tuple(coords)

    def names(self) -> list[str]:
        return [name for name, _lo, _hi in self.attributes]


@dataclass(frozen=True)
class ConnectionInfo:
    """Everything a peer needs to initiate hole punching to this host:
    the host's rendezvous server and the STUN-discovered NAT 2-tuple.

    ``alloc_stride`` carries the STUN-inferred symmetric port-allocation
    stride (0 = unpredictable; prediction disabled). ``observed_port`` is
    the host's *freshest* externally observed mapping — stamped by the
    rendezvous from live traffic at brokering time — which peers use as
    the base for predicted-port punching; 0 means "none observed, fall
    back to public_port".
    """

    rendezvous_ip: IPv4Address
    rendezvous_port: int
    public_ip: IPv4Address
    public_port: int
    private_ip: IPv4Address
    private_port: int
    nat_type: NatType
    alloc_stride: int = 0
    observed_port: int = 0


@dataclass(frozen=True)
class ResourceRecord:
    """One host's entry in the CAN-distributed resource directory."""

    host_name: str
    point: Point
    attrs: dict
    conn: ConnectionInfo

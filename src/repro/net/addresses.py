"""MAC and IPv4 addressing.

Addresses are small immutable value objects backed by integers; the hash
and ``is_broadcast`` are computed once, at construction, so lookups on the
packet fast path (ARP cache, MAC tables, NAT mapping keys) allocate nothing.
IPv4 parsing accepts dotted-quad strings; CIDR networks support containment
tests and host enumeration for scenario builders.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = [
    "BROADCAST_MAC",
    "IPv4Address",
    "IPv4Network",
    "MacAddress",
    "mac_factory",
]


class MacAddress:
    """48-bit Ethernet address."""

    __slots__ = ("value", "is_broadcast", "_hash")

    def __init__(self, value: Union[int, str, "MacAddress"]) -> None:
        if isinstance(value, MacAddress):
            value = value.value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC {value!r}")
            value = 0
            for p in parts:
                value = (value << 8) | int(p, 16)
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC out of range: {value:#x}")
        self.value = value
        self.is_broadcast = value == (1 << 48) - 1
        self._hash = hash(("mac", value))

    def __eq__(self, other: object) -> bool:
        return other is self or (other.__class__ is MacAddress and other.value == self.value)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (MacAddress, (self.value,))  # the cached hash is per process

    def __str__(self) -> str:
        octets = [(self.value >> (8 * i)) & 0xFF for i in range(5, -1, -1)]
        return ":".join(f"{o:02x}" for o in octets)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST_MAC = MacAddress((1 << 48) - 1)


def mac_factory(prefix: int = 0x02_00_00_00_00_00):
    """Return a callable minting locally-administered MACs sequentially.

    Scenario builders use one factory per topology so MACs are stable
    across runs regardless of construction interleaving.
    """
    counter = {"next": 1}

    def mint() -> MacAddress:
        mac = MacAddress(prefix | counter["next"])
        counter["next"] += 1
        return mac

    return mint


class IPv4Address:
    """32-bit IPv4 address."""

    __slots__ = ("value", "is_broadcast", "_hash")

    def __init__(self, value: Union[int, str, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            value = value.value
        elif isinstance(value, str):
            text, value = value, 0
            parts = text.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 {text!r}")
            for p in parts:
                octet = int(p)
                if not 0 <= octet <= 255:
                    raise ValueError(f"bad IPv4 {text!r}")
                value = (value << 8) | octet
        if not 0 <= value < (1 << 32):
            raise ValueError(f"IPv4 out of range: {value:#x}")
        self.value = value
        self.is_broadcast = value == (1 << 32) - 1
        self._hash = hash(("ip", value))

    def __eq__(self, other: object) -> bool:
        return other is self or (other.__class__ is IPv4Address and other.value == self.value)

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (IPv4Address, (self.value,))  # the cached hash is per process

    def __str__(self) -> str:
        octets = [(self.value >> (8 * i)) & 0xFF for i in range(3, -1, -1)]
        return ".".join(str(o) for o in octets)

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)


class IPv4Network:
    """CIDR prefix, e.g. ``IPv4Network('10.1.0.0/24')``."""

    __slots__ = ("network", "prefix_len", "_mask", "broadcast")

    def __init__(self, cidr: str) -> None:
        addr, _, plen = cidr.partition("/")
        if not plen:
            raise ValueError(f"missing prefix length in {cidr!r}")
        self.prefix_len = int(plen)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length in {cidr!r}")
        self._mask = ((1 << self.prefix_len) - 1) << (32 - self.prefix_len) if self.prefix_len else 0
        base = IPv4Address(addr).value & self._mask
        self.network = IPv4Address(base)
        self.broadcast = IPv4Address(base | (~self._mask & 0xFFFFFFFF))

    def __contains__(self, ip: IPv4Address) -> bool:
        return (ip.value & self._mask) == self.network.value

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th host address (1-based; 0 is the network address)."""
        ip = IPv4Address(self.network.value + index)
        if ip not in self or ip == self.broadcast and self.prefix_len < 31:
            raise ValueError(f"host index {index} outside {self}")
        return ip

    def hosts(self) -> Iterator[IPv4Address]:
        first = self.network.value + (1 if self.prefix_len < 31 else 0)
        last = self.broadcast.value - (1 if self.prefix_len < 31 else 0)
        for v in range(first, last + 1):
            yield IPv4Address(v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPv4Network)
            and other.network == self.network
            and other.prefix_len == self.prefix_len
        )

    def __hash__(self) -> int:
        return hash(("net", self.network.value, self.prefix_len))

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network('{self}')"

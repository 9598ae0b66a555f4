"""MAC and IPv4 addressing.

Addresses are interned: there is one object per value, whatever it is
built from (a str, an int, another address, a pickle or a copy), so
equality is identity and the hash is the object's own. Lookups on the
packet fast path (ARP cache, MAC tables, route cache, NAT mapping keys)
hash and compare in C and allocate nothing. An intern table holds every
distinct address made in the process.
IPv4 parsing accepts dotted-quad strings; CIDR networks support containment
tests and host enumeration for scenario builders.
"""

from __future__ import annotations

from itertools import count
from operator import index
from typing import Iterator

__all__ = [
    "BROADCAST_MAC",
    "IPv4Address",
    "IPv4Network",
    "MacAddress",
    "mac_factory",
]


class _Address:
    """An address made of ``_BITS`` bits, interned per subclass."""

    __slots__ = ("value", "is_broadcast")
    _BITS = 0
    _interned: dict  # each subclass's own: value, or text parsed -> address

    def __new__(cls, value):
        if value.__class__ is cls:
            return value
        self = cls._interned.get(value)
        if self is not None:
            return self
        number = cls._parse(value) if isinstance(value, str) else index(value)
        if not 0 <= number < (1 << cls._BITS):
            raise ValueError(f"{cls._KIND} out of range: {number:#x}")
        self = cls._interned.get(number)
        if self is None:
            self = cls._interned[number] = object.__new__(cls)
            self.value = number
            self.is_broadcast = number == (1 << cls._BITS) - 1
        if isinstance(value, str):
            cls._interned[value] = self
        return self

    def __reduce__(self):
        return (self.__class__, (self.value,))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}('{self}')"


class MacAddress(_Address):
    """48-bit Ethernet address: ``MacAddress(int | str | MacAddress)``."""

    __slots__ = ()
    _BITS, _KIND, _interned = 48, "MAC", {}

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC {text!r}")
        number = 0
        for p in parts:
            number = (number << 8) | int(p, 16)
        return number

    def __str__(self) -> str:
        octets = [(self.value >> (8 * i)) & 0xFF for i in range(5, -1, -1)]
        return ":".join(f"{o:02x}" for o in octets)


BROADCAST_MAC = MacAddress((1 << 48) - 1)


def mac_factory(prefix: int = 0x02_00_00_00_00_00):
    """Return a callable minting locally-administered MACs sequentially.

    Scenario builders use one factory per topology so MACs are stable
    across runs regardless of construction interleaving.
    """
    counter = count(1)
    return lambda: MacAddress(prefix | next(counter))


class IPv4Address(_Address):
    """32-bit IPv4 address: ``IPv4Address(int | str | IPv4Address)``."""

    __slots__ = ()
    _BITS, _KIND, _interned = 32, "IPv4", {}

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"bad IPv4 {text!r}")
        number = 0
        for p in parts:
            octet = int(p)
            if not 0 <= octet <= 255:
                raise ValueError(f"bad IPv4 {text!r}")
            number = (number << 8) | octet
        return number

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __str__(self) -> str:
        octets = [(self.value >> (8 * i)) & 0xFF for i in range(3, -1, -1)]
        return ".".join(str(o) for o in octets)

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

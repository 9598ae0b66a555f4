"""Wire formats with byte-accurate size accounting.

Packets are lightweight value objects. Payload *contents* are opaque
(simulation models timing, not data), but payload *sizes* are exact so
that serialization delay, header overhead, and throughput accounting all
match the real protocols:

* Ethernet II header: 14 B (+ 4 B FCS counted in ``ETHERNET_OVERHEAD``)
* IPv4 header: 20 B
* UDP header: 8 B
* TCP header: 20 B
* ICMP echo header: 8 B

Every object exposes ``.size`` — its on-wire byte count including the
sizes of everything it encapsulates. The objects are ``__slots__``
classes, immutable by convention: ``size`` is computed once, at
construction, from the headers and the already-built payload, so a
rewrite (NAT, TTL decrement) constructs a new object and nothing on the
per-hop path recurses into the nesting again.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net.addresses import IPv4Address, MacAddress

__all__ = [
    "ArpPacket",
    "ETHERNET_HEADER",
    "EthernetFrame",
    "ICMP_HEADER",
    "IPV4_HEADER",
    "IcmpMessage",
    "IPv4Packet",
    "Payload",
    "TCP_HEADER",
    "TcpSegment",
    "UDP_HEADER",
    "UdpDatagram",
    "WireFormat",
]

ETHERNET_HEADER = 14
ETHERNET_FCS = 4
IPV4_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
ICMP_HEADER = 8
ARP_SIZE = 28

# Ethertypes / protocol numbers we use.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


class WireFormat:
    """Base of every wire format: equality, hash and ``repr`` by value
    over the constructor fields a subclass names in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.__class__.__name__, self._key()))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({body})"


class Payload(WireFormat):
    """Opaque application payload: a byte count plus optional metadata.

    ``data`` is never serialized; it carries simulation-level objects
    (e.g. an HTTP request descriptor or a WAVNet-encapsulated frame).
    """

    __slots__ = _fields = ("size", "data", "kind")

    def __init__(self, size: int, data: Any = None, kind: str = "") -> None:
        if size < 0:
            raise ValueError(f"negative payload size {size}")
        self.size = size
        self.data = data
        self.kind = kind


class IcmpMessage(WireFormat):
    """ICMP echo request/reply (``kind`` is 'echo-request'/'echo-reply')."""

    _fields = ("kind", "ident", "seq", "payload_size", "timestamp")
    __slots__ = _fields + ("size",)

    def __init__(self, kind: str, ident: int, seq: int, payload_size: int = 56,
                 timestamp: float = 0.0) -> None:
        self.kind = kind
        self.ident = ident
        self.seq = seq
        self.payload_size = payload_size
        self.timestamp = timestamp  # sender's clock, echoed back for RTT
        self.size = ICMP_HEADER + payload_size


class UdpDatagram(WireFormat):
    _fields = ("src_port", "dst_port", "payload")
    __slots__ = _fields + ("size",)

    def __init__(self, src_port: int, dst_port: int, payload: Payload) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.size = UDP_HEADER + payload.size


# TCP flag bits.
SYN = 0x02
ACK = 0x10
FIN = 0x01
RST = 0x04


class TcpSegment(WireFormat):
    _fields = ("src_port", "dst_port", "seq", "ack", "flags", "window",
               "payload_size", "payload_data", "sack")
    __slots__ = _fields + ("size",)

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int, flags: int,
                 window: int, payload_size: int = 0, payload_data: Any = None,
                 sack: tuple = ()) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload_size = payload_size
        self.payload_data = payload_data
        # SACK blocks: up to 4 (start, end) byte ranges the receiver holds
        # above the cumulative ACK (RFC 2018; on by default as in 2011 Linux).
        self.sack = sack
        self.size = TCP_HEADER + payload_size

    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    def describe(self) -> str:
        names = []
        if self.syn:
            names.append("SYN")
        if self.ack_flag:
            names.append("ACK")
        if self.fin:
            names.append("FIN")
        if self.rst:
            names.append("RST")
        return f"TCP[{'|'.join(names) or 'DATA'} seq={self.seq} ack={self.ack} len={self.payload_size}]"


class IPv4Packet(WireFormat):
    _fields = ("src", "dst", "proto", "payload", "ttl")
    __slots__ = _fields + ("size",)

    def __init__(self, src: IPv4Address, dst: IPv4Address, proto: int,
                 payload: Any, ttl: int = 64) -> None:
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload  # UdpDatagram | TcpSegment | IcmpMessage
        self.ttl = ttl
        self.size = IPV4_HEADER + payload.size


class ArpPacket(WireFormat):
    """ARP request/reply ('request'/'reply'); gratuitous ARP is a reply
    whose sender == target (the post-migration announcement)."""

    _fields = ("op", "sender_mac", "sender_ip", "target_mac", "target_ip")
    __slots__ = _fields
    size = ARP_SIZE

    def __init__(self, op: str, sender_mac: MacAddress, sender_ip: IPv4Address,
                 target_mac: Optional[MacAddress], target_ip: IPv4Address) -> None:
        self.op = op
        self.sender_mac = sender_mac
        self.sender_ip = sender_ip
        self.target_mac = target_mac
        self.target_ip = target_ip

    @property
    def is_gratuitous(self) -> bool:
        return self.op == "reply" and self.sender_ip == self.target_ip


class EthernetFrame(WireFormat):
    _fields = ("src", "dst", "ethertype", "payload")
    __slots__ = _fields + ("size",)

    def __init__(self, src: MacAddress, dst: MacAddress, ethertype: int,
                 payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = payload  # IPv4Packet | ArpPacket
        # Minimum Ethernet payload is 46 B (frames are padded on the wire).
        body = payload.size
        self.size = ETHERNET_HEADER + ETHERNET_FCS + (body if body > 46 else 46)


def ipv4(src: IPv4Address, dst: IPv4Address, payload: Any, ttl: int = 64) -> IPv4Packet:
    """Build an IPv4 packet inferring the protocol number from the payload."""
    if isinstance(payload, UdpDatagram):
        proto = PROTO_UDP
    elif isinstance(payload, TcpSegment):
        proto = PROTO_TCP
    elif isinstance(payload, IcmpMessage):
        proto = PROTO_ICMP
    else:
        raise TypeError(f"cannot infer protocol for {type(payload).__name__}")
    return IPv4Packet(src, dst, proto, payload, ttl)


def frame_for(packet: Any, src: MacAddress, dst: MacAddress) -> EthernetFrame:
    """Wrap an L3 packet in an Ethernet frame with the right ethertype."""
    if isinstance(packet, IPv4Packet):
        etype = ETHERTYPE_IPV4
    elif isinstance(packet, ArpPacket):
        etype = ETHERTYPE_ARP
    else:
        raise TypeError(f"cannot frame {type(packet).__name__}")
    return EthernetFrame(src, dst, etype, packet)

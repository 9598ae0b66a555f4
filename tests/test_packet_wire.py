"""Wire formats: slotted value objects whose ``size`` is fixed at
construction; a rewrite (NAT, TTL) constructs a new object."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.assembler import (DATA_HEADER, PacketAssembler, WavData, WavPulse,
                                  WavPunch, WavPunchAck, WavRelay)
from repro.nat.box import NatBox
from repro.nat.mapping import MappingTable
from repro.nat.types import NatType
from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Network, MacAddress, mac_factory
from repro.net.l2 import Switch
from repro.net.packet import (ACK, ARP_SIZE, ETHERNET_FCS, ETHERNET_HEADER, ICMP_HEADER,
                              IPV4_HEADER, PROTO_ICMP, PROTO_TCP, PROTO_UDP, TCP_HEADER,
                              UDP_HEADER, ArpPacket, EthernetFrame, IcmpMessage, IPv4Packet,
                              Payload, TcpSegment, UdpDatagram, frame_for, ipv4)
from repro.net.stack import Host
from repro.sim import Simulator

A, B = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
MA, MB = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")
ETH = ETHERNET_HEADER + ETHERNET_FCS


def _tcp(n=1000):
    return TcpSegment(4000, 80, 1, 2, ACK, 65535, payload_size=n)


# -- size: the header-sum definition, stored once ------------------------

@pytest.mark.parametrize("l4, l4_size", [
    (_tcp(1000), TCP_HEADER + 1000),
    (UdpDatagram(5000, 53, Payload(300)), UDP_HEADER + 300),
    (IcmpMessage("echo-request", 7, 1, payload_size=56), ICMP_HEADER + 56),
])
def test_transport_in_ip_in_ethernet_sizes(l4, l4_size):
    packet = ipv4(A, B, l4)
    frame = frame_for(packet, MA, MB)
    assert l4.size == l4_size
    assert packet.size == IPV4_HEADER + l4_size
    assert frame.size == ETH + IPV4_HEADER + l4_size


def test_small_frames_are_padded_to_the_ethernet_minimum():
    ack = frame_for(ipv4(A, B, _tcp(0)), MA, MB)
    assert ack.payload.size == IPV4_HEADER + TCP_HEADER == 40
    assert ack.size == ETH + 46
    arp = frame_for(ArpPacket("request", MA, A, None, B), MA, BROADCAST_MAC)
    assert arp.payload.size == ARP_SIZE == 28
    assert arp.size == ETH + 46
    exact = frame_for(ipv4(A, B, UdpDatagram(1, 2, Payload(46 - IPV4_HEADER - UDP_HEADER))),
                      MA, MB)
    assert exact.size == ETH + 46
    assert frame_for(ipv4(A, B, UdpDatagram(1, 2, Payload(19))), MA, MB).size == ETH + 47


def test_tunnel_nesting_sizes():
    inner = frame_for(ipv4(A, B, _tcp(1460)), MA, MB)
    payload = PacketAssembler().encapsulate(inner)
    assert isinstance(payload.data, WavData)
    assert payload.size == payload.data.size == DATA_HEADER + inner.size
    outer = frame_for(ipv4(IPv4Address("8.0.0.1"), IPv4Address("8.0.0.2"),
                           UdpDatagram(4500, 4500, payload)), MA, MB)
    # The per-packet overhead of the virtual layer (assembler docstring).
    assert outer.size - inner.size == DATA_HEADER + UDP_HEADER + IPV4_HEADER + ETH
    relay = WavRelay("a", "b", payload.data)
    assert relay.size == 16 + DATA_HEADER + inner.size
    assert WavRelay("a", "b", WavPulse()).size == 16 + 2


def test_size_is_a_stored_attribute_not_recomputed():
    payload = Payload(10)
    dgram = UdpDatagram(1, 2, payload)
    packet = ipv4(A, B, dgram)
    frame = frame_for(packet, MA, MB)
    for obj in (dgram, packet, frame, _tcp(), IcmpMessage("echo-reply", 1, 1)):
        assert "size" in type(obj).__slots__
        assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        EthernetFrame(MA, MB, 0x0800, None)  # no payload, no size
    with pytest.raises(ValueError):
        Payload(-1)


# -- value semantics -----------------------------------------------------

def test_equality_and_hash_are_by_value():
    def build():
        return frame_for(ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                              UdpDatagram(1, 2, Payload(5, data=("x", 1), kind="k"))),
                         MacAddress(MA.value), MacAddress(MB.value))
    f1, f2 = build(), build()
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    assert f1.payload == f2.payload and f1.payload.payload == f2.payload.payload
    assert len({f1, f2}) == 1
    assert f1 != frame_for(f1.payload, MA, BROADCAST_MAC)
    pkt = f1.payload
    assert pkt != IPv4Packet(pkt.src, pkt.dst, pkt.proto, pkt.payload, pkt.ttl - 1)
    assert _tcp(5) == _tcp(5) and _tcp(5) != _tcp(6)
    assert repr(Payload(3, kind="k")) == "Payload(size=3, data=None, kind='k')"
    assert repr(WavPunch("a", 2)) == "WavPunch(sender='a', nonce=2)"


def test_equal_fields_in_different_classes_are_not_equal():
    punch, ack = WavPunch("a", 1), WavPunchAck("a", 1)
    assert punch != ack and hash(punch) != hash(ack)
    assert punch == WavPunch("a", 1) and WavPulse() == WavPulse()
    assert not isinstance(ack, WavPunch)  # the driver tells them apart by class
    assert Payload(1) != UdpDatagram(1, None, Payload(0))


def test_frames_survive_a_pickle_round_trip():
    frame = frame_for(ipv4(A, B, UdpDatagram(1, 2, PacketAssembler().encapsulate(
        frame_for(ipv4(A, B, _tcp(100)), MA, MB)))), MA, MB)
    clone = pickle.loads(pickle.dumps(frame))
    assert clone == frame and clone.size == frame.size
    assert clone.payload.payload.payload.data.frame.size == ETH + IPV4_HEADER + TCP_HEADER + 100


# -- NAT rewrites construct, never mutate --------------------------------

def _nat():
    sim = Simulator()
    nat = NatBox(sim, "nat", mac_factory(), nat_type="full-cone")
    nat.add_inside("192.168.1.1", "192.168.1.0/24")
    nat.add_outside("8.0.0.1", "8.0.0.0/24")
    return nat


@pytest.mark.parametrize("proto, l4, port_field", [
    (PROTO_UDP, UdpDatagram(5000, 53, Payload(100, data="q")), "src_port"),
    (PROTO_TCP, TcpSegment(5000, 80, 11, 22, ACK, 4096, 100, "d", ((1, 2),)), "src_port"),
    (PROTO_ICMP, IcmpMessage("echo-request", 5000, 3, 56, 1.5), "ident"),
])
def test_snat_then_dnat_return_new_objects(proto, l4, port_field):
    nat = _nat()
    inside, remote = IPv4Address("192.168.1.10"), IPv4Address("9.9.9.9")
    original = IPv4Packet(inside, remote, proto, l4, ttl=63)
    before = (repr(original), original.size, repr(l4), l4.size)

    out = nat._post_routing(original, nat.outside)
    assert out is not original and out.payload is not l4
    assert (repr(original), original.size, repr(l4), l4.size) == before
    assert (out.src, out.dst, out.ttl, out.size) == (nat.public_ip, remote, 63, original.size)
    ext_port = getattr(out.payload, port_field)
    assert ext_port != 5000
    # Everything but the rewritten port is carried over.
    assert type(out.payload)(**{**_fields(l4), port_field: ext_port}) == out.payload

    if proto == PROTO_ICMP:
        reply_l4 = IcmpMessage("echo-reply", ext_port, 3, 56, 1.5)
        back_field = "ident"
    else:
        reply_l4 = type(l4)(**{**_fields(l4), "src_port": l4.dst_port, "dst_port": ext_port})
        back_field = "dst_port"
    reply = IPv4Packet(remote, nat.public_ip, proto, reply_l4)
    back = nat._pre_routing(reply, nat.outside)
    assert back is not reply and back.payload is not reply_l4
    assert (back.src, back.dst) == (remote, inside)
    assert getattr(back.payload, back_field) == 5000
    assert getattr(reply_l4, back_field) == ext_port and reply.dst == nat.public_ip


def _fields(obj):
    return {name: getattr(obj, name) for name in obj._fields}


# -- addresses: hash once, still keys after pickling ---------------------

def test_address_hash_and_equality():
    assert hash(IPv4Address("10.0.0.1")) == hash(IPv4Address(A.value)) == hash(A)
    assert hash(MacAddress("02:00:00:00:00:01")) == hash(MacAddress(MA.value)) == hash(MA)
    assert IPv4Address(A) == A and MacAddress(MA) == MA
    assert IPv4Address(5) != MacAddress(5) and hash(IPv4Address(5)) != hash(MacAddress(5))
    assert A != A.value and A != "10.0.0.1"
    assert BROADCAST_MAC.is_broadcast and not MA.is_broadcast
    assert IPv4Address("255.255.255.255").is_broadcast and not A.is_broadcast
    net = IPv4Network("10.1.0.0/24")
    assert net.broadcast == IPv4Address("10.1.0.255") and net.broadcast is net.broadcast


def test_pickled_addresses_still_key_every_table():
    ip, mac = pickle.loads(pickle.dumps((A, MA)))
    assert ip is A and ip == A and hash(ip) == hash(A)  # interned: one object per value
    assert mac is MA and mac == MA and hash(mac) == hash(MA)
    assert (ip.is_broadcast, mac.is_broadcast) == (False, False)
    assert pickle.loads(pickle.dumps(BROADCAST_MAC)).is_broadcast
    net = pickle.loads(pickle.dumps(IPv4Network("10.0.0.0/24")))
    assert A in net and net.broadcast == IPv4Address("10.0.0.255")

    sim = Simulator()
    host = Host(sim, "h", mac_factory())
    host.stack._learn_arp(A, MA)
    assert host.stack._arp_lookup(ip) == MA

    switch = Switch(sim)
    port = switch.new_port()
    switch.mac_table[MA] = (port, sim.now)
    assert switch.lookup(mac) is port

    table = MappingTable(NatType.SYMMETRIC, timeout=60)
    m = table.outbound(A, 5000, B, 53, now=0.0)
    remote = pickle.loads(pickle.dumps(B))
    assert table.outbound(ip, 5000, remote, 53, now=1.0) is m
    assert table.inbound(m.external_port, remote, 53, now=2.0) is m


def test_address_pickled_under_another_hash_seed_is_rehashed():
    """The cached hash mixes in a str, so it differs between interpreters
    with different hash seeds; unpickling must recompute, not restore it."""
    code = ("import pickle, sys; from repro.net.addresses import IPv4Address, MacAddress; "
            "sys.stdout.buffer.write(pickle.dumps((IPv4Address('10.0.0.1'), "
            "MacAddress('02:00:00:00:00:01'))))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    for seed in ("1", "2"):
        blob = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              env={**os.environ, "PYTHONPATH": src,
                                   "PYTHONHASHSEED": seed}).stdout
        ip, mac = pickle.loads(blob)
        assert {A: "ip", MA: "mac"}[ip] == "ip" and {A: "ip", MA: "mac"}[mac] == "mac"

"""Unit tests for the WAN latency cloud."""

import pytest

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.l2 import Port
from repro.net.packet import (ArpPacket, EthernetFrame, Payload,
                               UdpDatagram, frame_for, ipv4)
from repro.net.wan import WanCloud
from repro.scenarios.wavnet_env import wavnet_mesh
from repro.sim import Simulator


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []
        self.port = Port(self, "sink")

    def on_frame(self, frame, port):
        self.received.append((self.sim.now, frame))


def frame(src, dst):
    pkt = ipv4(IPv4Address("8.0.0.1"), IPv4Address("8.0.0.2"),
               UdpDatagram(1, 2, Payload(50)))
    return EthernetFrame(MacAddress(src), MacAddress(dst), 0x0800, pkt)


def arp(op, target, sender="8.0.0.1", src=1):
    packet = ArpPacket(op, MacAddress(src), IPv4Address(sender),
                       BROADCAST_MAC if op == "reply" else None,
                       IPv4Address(target))
    return frame_for(packet, MacAddress(src), BROADCAST_MAC)


def build(sim, names=("a", "b", "c"), default=0.010):
    cloud = WanCloud(sim, default_latency=default)
    sinks = {}
    for name in names:
        s = Sink(sim)
        from repro.net.l2 import patch
        patch(s.port, cloud.attach(name))
        sinks[name] = s
    return cloud, sinks


class TestWanCloud:
    def test_unknown_mac_floods_all_other_sites(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["a"].port.transmit(frame(1, 99))
        sim.run()
        assert len(sinks["b"].received) == 1
        assert len(sinks["c"].received) == 1
        assert sinks["a"].received == []

    def test_learning_unicasts_after_first_frame(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["b"].port.transmit(frame(7, 99))   # cloud learns MAC 7 @ b
        sim.run()
        sinks["a"].port.transmit(frame(1, 7))
        sim.run()
        # b got only the unicast (its own flood is not echoed back).
        assert len(sinks["b"].received) == 1
        assert len(sinks["c"].received) == 1  # only the first flood

    def test_per_pair_latency(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        cloud.set_rtt("a", "b", 0.100)
        cloud.set_rtt("a", "c", 0.020)
        sinks["a"].port.transmit(frame(1, 99))  # flood
        sim.run()
        assert sinks["b"].received[0][0] == pytest.approx(0.050)
        assert sinks["c"].received[0][0] == pytest.approx(0.010)

    def test_default_latency_for_unconfigured_pairs(self):
        sim = Simulator()
        cloud, sinks = build(sim, default=0.033)
        sinks["a"].port.transmit(frame(1, 99))
        sim.run()
        assert sinks["b"].received[0][0] == pytest.approx(0.033)

    def test_detach_purges_macs_and_stops_delivery(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["b"].port.transmit(frame(7, 99))
        sim.run()
        cloud.detach("b")
        sinks["a"].port.transmit(frame(1, 7))
        sim.run()
        # b is gone and its MAC entry purged; the frame floods to c only.
        assert len(sinks["b"].received) == 0
        assert len(sinks["c"].received) == 2

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        cloud, _sinks = build(sim)
        with pytest.raises(ValueError):
            cloud.attach("a")

    def test_negative_latency_rejected(self):
        sim = Simulator()
        cloud, _ = build(sim)
        with pytest.raises(ValueError):
            cloud.set_latency("a", "b", -0.1)

    def test_broadcast_frame_reaches_everyone(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        bcast = EthernetFrame(MacAddress(1), BROADCAST_MAC, 0x0800,
                              frame(1, 2).payload)
        sinks["a"].port.transmit(bcast)
        sim.run()
        assert len(sinks["b"].received) == 1 and len(sinks["c"].received) == 1

    def test_frames_counted(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["a"].port.transmit(frame(1, 99))
        sim.run()
        assert cloud.frames_carried == 1


class TestPrivateArp:
    """The core carries no RFC 1918 destination (RFC 1918 §3): an ARP
    request for a private address is dropped, not flooded."""

    @pytest.mark.parametrize("target", ["10.0.0.1", "10.255.255.255",
                                        "172.16.0.1", "172.31.255.255",
                                        "192.168.0.1"])
    def test_private_target_request_is_dropped(self, target):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["a"].port.transmit(arp("request", target))
        sim.run()
        assert all(s.received == [] for s in sinks.values())
        assert cloud.frames_unroutable == 1

    @pytest.mark.parametrize("target", ["9.255.255.255", "11.0.0.1",
                                        "172.15.255.255", "172.32.0.0",
                                        "192.167.255.255", "192.169.0.1"])
    def test_public_target_request_floods(self, target):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["a"].port.transmit(arp("request", target))
        sim.run()
        assert len(sinks["b"].received) == 1
        assert len(sinks["c"].received) == 1
        assert cloud.frames_unroutable == 0

    def test_gratuitous_arp_floods(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["a"].port.transmit(arp("reply", "192.168.0.1",
                                     sender="192.168.0.1"))
        sim.run()
        assert len(sinks["b"].received) == 1
        assert len(sinks["c"].received) == 1
        assert cloud.frames_unroutable == 0

    def test_dropped_request_still_teaches_the_mac_table(self):
        sim = Simulator()
        cloud, sinks = build(sim)
        sinks["b"].port.transmit(arp("request", "10.0.0.1", src=7))
        sim.run()
        assert cloud.mac_table[MacAddress(7)] == "b"


def test_mesh_punch_floods_no_private_candidate_arp():
    sim, payload = wavnet_mesh(seed=7, n_hosts=8, settle=20.0)
    cloud = sim.components["link:m0.access"].ab.dst.owner
    assert payload["connections"] == 28 and payload["relayed"] == 0
    # Each NAT ARPs for each peer's private candidate, three tries apiece.
    assert cloud.frames_unroutable == 3 * 8 * 7
    assert sim.now == 51.818670239999534
    # 15944 while the cloud flooded those 168 requests to the 10 other
    # sites (7 other NATs, 2 STUN, 1 rendezvous): 1680 copies, 3 events
    # each (the cloud's pipe, then the access link's serializer completion
    # and its delivery). 10904 until a frame crossing an idle, lossless
    # shaped link cost one calendar entry instead of two; 7425 until a link
    # folded its site switch's forward delay (1010 transmit entries fewer).
    assert sim.events_dispatched == 6415

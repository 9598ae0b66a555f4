"""Unit tests for WAVNet core plumbing: tap device, packet assembler,
WAV-Switch, and encapsulation overhead accounting."""

import pytest

from repro.core.assembler import (
    DATA_HEADER,
    PULSE_SIZE,
    PacketAssembler,
    WavData,
    WavPunch,
    WavRelay,
)
from repro.core.switch import WavSwitch
from repro.core.tap import TapDevice
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.l2 import Port, patch
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.sim import Simulator


def make_frame(src=1, dst=2, payload_size=100):
    pkt = ipv4(IPv4Address("10.99.0.1"), IPv4Address("10.99.0.2"),
               UdpDatagram(1, 2, Payload(payload_size)))
    return EthernetFrame(MacAddress(src), MacAddress(dst), 0x0800, pkt)


class TestAssembler:
    def test_data_encapsulation_size(self):
        pa = PacketAssembler()
        frame = make_frame()
        payload = pa.encapsulate(frame)
        assert payload.size == DATA_HEADER + frame.size
        assert isinstance(payload.data, WavData)

    def test_decapsulation_roundtrip(self):
        pa = PacketAssembler()
        frame = make_frame()
        assert pa.decapsulate(pa.encapsulate(frame)) is frame
        assert pa.frames_encapsulated == pa.frames_decapsulated == 1

    def test_decapsulate_rejects_non_data(self):
        pa = PacketAssembler()
        assert pa.decapsulate(pa.pulse()) is None

    def test_pulse_is_two_bytes(self):
        pa = PacketAssembler()
        assert pa.pulse().size == PULSE_SIZE == 2

    def test_punch_variants(self):
        p = PacketAssembler.punch("alice", 3)
        a = PacketAssembler.punch("alice", 3, ack=True)
        assert isinstance(p.data, WavPunch)
        assert p.data.sender == "alice" and p.data.nonce == 3
        assert type(a.data).__name__ == "WavPunchAck"

    def test_relay_wraps_inner(self):
        frame = make_frame()
        inner = WavData(frame)
        relay = WavRelay("a", "b", inner)
        assert relay.size == 16 + inner.size

    def test_byte_accounting(self):
        pa = PacketAssembler()
        frame = make_frame()
        pa.encapsulate(frame)
        pa.encapsulate(frame)
        assert pa.bytes_tunneled == 2 * (DATA_HEADER + frame.size)


class FakeConn:
    def __init__(self, usable=True):
        self.usable = usable
        self.sent = []

    def send(self, payload):
        self.sent.append(payload)


class TestWavSwitch:
    def test_learn_and_unicast(self):
        sw = WavSwitch("h")
        conn = FakeConn()
        sw.learn(MacAddress(7), conn)
        out = sw.select(make_frame(dst=7), [conn, FakeConn()])
        assert out == [conn]
        assert sw.frames_unicast == 1

    def test_unknown_mac_broadcasts(self):
        sw = WavSwitch("h")
        conns = [FakeConn(), FakeConn()]
        out = sw.select(make_frame(dst=42), conns)
        assert out == conns
        assert sw.frames_broadcast == 1

    def test_broadcast_frame_goes_everywhere(self):
        sw = WavSwitch("h")
        conns = [FakeConn(), FakeConn(), FakeConn(usable=False)]
        frame = EthernetFrame(MacAddress(1), BROADCAST_MAC, 0x0800,
                              make_frame().payload)
        out = sw.select(frame, conns)
        assert len(out) == 2  # dead connection excluded

    def test_dead_connection_entry_purged_on_lookup(self):
        sw = WavSwitch("h")
        conn = FakeConn(usable=False)
        sw.learn(MacAddress(7), conn)
        assert sw.lookup(MacAddress(7)) is None
        assert MacAddress(7) not in sw.mac_table

    def test_forget_connection(self):
        sw = WavSwitch("h")
        conn = FakeConn()
        sw.learn(MacAddress(1), conn)
        sw.learn(MacAddress(2), conn)
        sw.forget_connection(conn)
        assert not sw.mac_table

    def test_relearning_moves_mac(self):
        """Fig 5's core mechanism at the WAV-Switch level."""
        sw = WavSwitch("h")
        old, new = FakeConn(), FakeConn()
        sw.learn(MacAddress(9), old)
        sw.learn(MacAddress(9), new)  # gratuitous ARP came over `new`
        assert sw.select(make_frame(dst=9), [old, new]) == [new]


class TestTapDevice:
    def test_capture_pays_cost_and_is_serialized(self):
        sim = Simulator()
        tap = TapDevice(sim, per_frame_cost=100e-6, per_byte_cost=0.0)
        captured = []
        tap.capture_handler = lambda f: captured.append(sim.now)
        frame = make_frame()
        # Two frames injected back-to-back must come out 100us apart.
        tap.on_frame(frame, tap.port)
        tap.on_frame(frame, tap.port)
        sim.run()
        assert captured[0] == pytest.approx(100e-6)
        assert captured[1] == pytest.approx(200e-6)

    def test_inject_transmits_on_port(self):
        sim = Simulator()
        tap = TapDevice(sim, per_frame_cost=10e-6, per_byte_cost=0.0)
        got = []

        class Sink:
            def __init__(self):
                self.port = Port(self, "sink")

            def on_frame(self, frame, port):
                got.append(sim.now)

        sink = Sink()
        patch(tap.port, sink.port)
        tap.inject(make_frame())
        sim.run()
        assert got and got[0] == pytest.approx(10e-6)

    def test_down_tap_drops(self):
        sim = Simulator()
        tap = TapDevice(sim)
        tap.capture_handler = lambda f: pytest.fail("captured while down")
        tap.up = False
        tap.on_frame(make_frame(), tap.port)
        tap.inject(make_frame())
        sim.run()
        assert tap.frames_captured == 0 and tap.frames_injected == 0

    def test_per_byte_cost_scales(self):
        sim = Simulator()
        tap = TapDevice(sim, per_frame_cost=0.0, per_byte_cost=1e-6)
        times = []
        tap.capture_handler = lambda f: times.append(sim.now)
        small, big = make_frame(payload_size=50), make_frame(payload_size=1000)
        tap.on_frame(small, tap.port)
        sim.run()
        t_small = times[-1]
        tap2 = TapDevice(sim, per_frame_cost=0.0, per_byte_cost=1e-6)
        tap2.capture_handler = lambda f: times.append(sim.now - t_small)
        tap2.on_frame(big, tap2.port)
        sim.run()
        assert times[-1] > t_small  # bigger frame, bigger copy cost

    def test_queue_overflow_counted(self):
        """A direction holds ``queue_capacity`` frames plus the one in
        service, from the first frame on: 3 of 5 fit, 2 drop. (This
        pinned 3 while the tap was a generator process, whose worker had
        not started when the first frame came; a started tap dropped 2.)"""
        sim = Simulator()
        tap = TapDevice(sim, per_frame_cost=1.0, queue_capacity=2)
        tap.capture_handler = lambda f: None
        for _ in range(5):
            tap.on_frame(make_frame(), tap.port)
        assert tap.drops == 2

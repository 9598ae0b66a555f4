"""A folded switch against the two-entry switch it replaced.

A link that delivers to a :class:`~repro.net.l2.Switch` folds the switch's
forward delay ``d`` into its own delivery: one calendar entry at
``arrival + d`` learns and looks up as of the arrival and transmits at
once. ``TwoEntrySwitch`` below is the previous design, kept as the
oracle: a delivery entry at ``arrival`` learns and looks up, and a
transmit entry per out port sits at ``arrival + d``. Random multi-port
traffic on a dyadic time grid (so instants tie exactly: same-instant
offers, transmits that meet a completion due on a full queue), shaped
and unshaped links, MAC moves and link flaps must give both the same
deliveries on every port (instant and order), drops, counters and MAC
table; only the calendar entries differ, by the oracle's transmit
entries.
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.l2 import Link, Port, Switch, patch
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.sim import Simulator

U = 2.0 ** -10  # the time grid: every delay and transmission time is a multiple
SHAPED = 64 * 8 / U  # a 64 B frame takes U, a 128 B frame 2U
MACS = [MacAddress(0x02_00_00_00_00_01 + k) for k in range(4)]


class TwoEntrySwitch:
    """The oracle: learn and look up on delivery, transmit ``d`` later."""

    def __init__(self, sim, forward_delay):
        self.sim = sim
        self.forward_delay = forward_delay
        self.mac_age_limit = 300.0
        self.ports = []
        self.mac_table = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.transmit_entries = 0

    def new_port(self):
        port = Port(self, f"ref.p{len(self.ports)}")
        self.ports.append(port)
        return port

    def lookup(self, mac):
        entry = self.mac_table.get(mac)
        if entry is None:
            return None
        port, when = entry
        if self.sim.now - when > self.mac_age_limit:
            del self.mac_table[mac]
            return None
        return port

    def on_frame(self, frame, in_port):
        self.mac_table[frame.src] = (in_port, self.sim.now)
        out = None if frame.dst.is_broadcast else self.lookup(frame.dst)
        if out is not None and out is not in_port:
            self.frames_forwarded += 1
            self._emit(out, frame)
        elif out is None:
            self.frames_flooded += 1
            for port in self.ports:
                if port is not in_port:
                    self._emit(port, frame)

    def _emit(self, port, frame):
        if self.forward_delay > 0:
            self.sim.call_in(self.forward_delay, partial(self._transmit, port, frame))
        else:
            port.transmit(frame)

    def _transmit(self, port, frame):
        self.transmit_entries += 1
        port.transmit(frame)


class Endpoint:
    def __init__(self, sim, name):
        self.sim = sim
        self.received = []
        self.port = Port(self, name)

    def on_frame(self, frame, port):
        self.received.append((self.sim.now, frame))


def frame_of(src, dst, big):
    # 64 B or 128 B on the wire.
    dgram = UdpDatagram(1000, 2000, Payload(82 if big else 18))
    pkt = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), dgram)
    return EthernetFrame(src, dst, 0x0800, pkt)


def drive(oracle, delay, links, script):
    """Run ``script`` through a switch with one link per host; return
    everything the two designs must agree on."""
    sim = Simulator(seed=1)
    switch = TwoEntrySwitch(sim, delay) if oracle else Switch(sim, forward_delay=delay)
    hosts, wires = [], []
    for k, (latency, shaped, capacity) in enumerate(links):
        host = Endpoint(sim, f"h{k}")
        wires.append(Link(sim, host.port, switch.new_port(), latency=latency * U,
                          bandwidth_bps=SHAPED if shaped else None,
                          queue_capacity=capacity, name=f"l{k}"))
        hosts.append(host)
    frames = {}
    t = 0.0
    for i, (gap, step) in enumerate(script):
        t += gap * U
        if step[0] == "flap":
            _, k, down_for = step
            link = wires[k % len(wires)]
            sim.call_at(t, link.admin_down)
            sim.call_at(t + down_for * U, link.admin_up)
            continue
        _, k, src, dst, count, big = step
        burst = [frame_of(MACS[src], BROADCAST_MAC if dst is None else MACS[dst], big)
                 for _ in range(count)]
        frames.update((id(f), (i, j)) for j, f in enumerate(burst))
        port = hosts[k % len(hosts)].port
        sim.call_at(t, partial(lambda p, b: [p.transmit(f) for f in b], port, burst))
    sim.run()
    index = {port: n for n, port in enumerate(switch.ports)}
    pipes = [p for w in wires for p in (w.ab, w.ba)]
    seen = ([[(when, frames[id(f)]) for when, f in h.received] for h in hosts],
            [(p.drops, p.frames_dropped_down, p.bytes_sent, p.frames_sent) for p in pipes],
            switch.frames_forwarded, switch.frames_flooded,
            {mac.value: (index[port], when) for mac, (port, when) in switch.mac_table.items()})
    return seen, sim.events_dispatched, getattr(switch, "transmit_entries", 0)


link = st.tuples(st.sampled_from([0, 0, 1, 3]),        # latency, in U
                 st.booleans(),                         # shaped
                 st.integers(0, 2))                     # queue capacity
send = st.tuples(st.just("send"), st.integers(0, 3),    # host
                 st.integers(0, 3),                     # src MAC (moves when it changes host)
                 st.one_of(st.none(), st.integers(0, 3)),  # dst MAC, None = broadcast
                 st.integers(1, 3), st.booleans())      # burst size, 128 B frames
flap = st.tuples(st.just("flap"), st.integers(0, 3), st.integers(0, 6))
script = st.lists(st.tuples(st.sampled_from([0, 0, 1, 1, 2, 3, 8]),
                            st.one_of(send, send, send, flap)), max_size=30)


@given(delay=st.sampled_from([U, 2 * U, 3 * U]),
       links=st.lists(link, min_size=2, max_size=4), script=script)
@example(  # the third frame's transmit meets the completion due on l1's full queue
    delay=U, links=[(0, False, 0), (0, True, 1)],
    script=[(0, ("send", 0, 0, None, 2, False)), (1, ("send", 0, 0, None, 1, False))])
@example(  # replies while the first burst is still queued: learn and look-up order
    delay=U, links=[(0, True, 1), (1, True, 1)],
    script=[(0, ("send", 0, 0, 1, 3, False)), (0, ("send", 1, 1, 0, 2, False)),
            (1, ("send", 1, 1, 0, 1, True))])
@settings(max_examples=200, deadline=None)
def test_folded_switch_matches_the_two_entry_oracle(delay, links, script):
    folded, events, _ = drive(False, delay, links, script)
    expected, oracle_events, transmits = drive(True, delay, links, script)
    assert folded == expected
    # The delivery entry becomes the folded hop; each transmit entry goes.
    assert oracle_events - events == transmits


def test_a_patched_port_unfolds_the_switch():
    sim = Simulator()
    switch = Switch(sim)
    a, b = Endpoint(sim, "a"), Endpoint(sim, "b")
    Link(sim, a.port, switch.new_port(), latency=U, name="la")
    assert switch._folded
    patch(b.port, switch.new_port())
    assert not switch._folded
    a.port.transmit(frame_of(MACS[0], BROADCAST_MAC, False))
    sim.run()
    # Delivery at U, transmit entry at U + d: the two-entry hop.
    assert sim.events_dispatched == 2 and b.received[0][0] == U + switch.forward_delay

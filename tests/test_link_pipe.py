"""A link direction against the two-entry pipe it replaced.

``_Pipe`` runs its own drop-tail FIFO and schedules a frame that finds
the transmitter idle straight to its arrival. ``SerializerPipe`` below is
the previous design, kept as the oracle: the queue and transmitter are one
:class:`~repro.sim.queues.Serializer` station, so every frame pays a
completion entry and then a delivery entry. Random offer patterns and
mid-run reconfiguration must give both the same arrivals, drops, losses
and byte counters; only the number of calendar entries differs, and the
exact-cost tests pin that.
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.l2 import Link, Port
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.sim import Serializer, Simulator


class SerializerPipe:
    """The oracle: admin state -> Serializer -> accounting, loss, propagation."""

    def __init__(self, sim, dst, latency, bandwidth_bps, queue_capacity, loss,
                 loss_rng, name):
        self.sim = sim
        self.dst = dst
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss = loss
        self._loss_rng = loss_rng
        self.name = name
        self.queue = Serializer(sim, queue_capacity, self._tx_time, self._emit)
        self.up = True
        self.bytes_sent = 0
        self.frames_sent = 0
        self.frames_lost = 0
        self.frames_dropped_down = 0

    def send(self, frame):
        if not self.up:
            self.frames_dropped_down += 1
            return
        self.queue.offer(frame)

    @property
    def drops(self):
        return self.queue.drops

    def _tx_time(self, frame):
        bw = self.bandwidth_bps
        return bw and frame.size * 8.0 / bw

    def _emit(self, frame):
        self.bytes_sent += frame.size
        self.frames_sent += 1
        if self.loss > 0.0 and self._loss_rng.random() < self.loss:
            self.frames_lost += 1
            return
        self.sim.call_in(self.latency, partial(self.dst.deliver, frame))


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.received = []
        self.port = Port(self, "sink")

    def on_frame(self, frame, port):
        self.received.append((self.sim.now, frame))


def frame_of(payload_bytes):
    dgram = UdpDatagram(1000, 2000, Payload(payload_bytes))
    pkt = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), dgram)
    return EthernetFrame(MacAddress(1), MacAddress(2), 0x0800, pkt)


def transmit_all(port, frames):
    for frame in frames:
        port.transmit(frame)


def build(seed, latency, bandwidth_bps, capacity, loss, oracle):
    """A Link whose a->b direction is the pipe under test."""
    sim = Simulator(seed=seed)
    a, b = Sink(sim), Sink(sim)
    link = Link(sim, a.port, b.port, latency=latency, bandwidth_bps=bandwidth_bps,
                queue_capacity=capacity, loss=loss, name="l")
    if oracle:
        a.port.disconnect()
        link.ab = SerializerPipe(sim, b.port, latency, bandwidth_bps, capacity, loss,
                                 link.ab._loss_rng, link.ab.name)
        a.port.connect(link.ab.send)
    return sim, a, b, link


# Prime bandwidths put transmission times off the 0.1 ms grid of the
# offer instants: a frame never ends at the exact instant of an offer or
# reshape, where the two designs may legitimately order a tie apart.
BANDWIDTHS = [None, 333_331.0, 1_111_117.0, 9_700_001.0]
SAMPLE_SKEW = 3.3e-8  # counters are read just after each step, mid-frame

step = st.sampled_from(
    # Mostly traffic: a burst of 1-6 same-size frames offered at one instant.
    [st.tuples(st.just("frame"), st.tuples(st.integers(0, 1400), st.integers(1, 6)))] * 3
    + [st.tuples(st.just("bw"), st.sampled_from(BANDWIDTHS)),
       st.tuples(st.just("down"), st.none()),
       st.tuples(st.just("up"), st.none()),
       st.tuples(st.just("loss"), st.sampled_from([0.0, 0.25]))]).flatmap(lambda s: s)


def drive(oracle, seed, latency, bandwidth_bps, capacity, loss, script):
    sim, a, b, link = build(seed, latency, bandwidth_bps, capacity, loss, oracle)
    frames = {}
    samples = []

    def sample():
        pipe = link.ab
        samples.append((sim.now, pipe.bytes_sent, pipe.frames_sent, pipe.frames_lost))

    t = 0.0
    for i, (gap, (kind, arg)) in enumerate(script):
        # A second outlasts any backlog, so set_loss lands on an idle link.
        t += 1.0 if kind == "loss" else gap * 1e-4
        if kind == "frame":
            size, count = arg
            burst = [frame_of(size) for _ in range(count)]
            frames.update(((i, k), f) for k, f in enumerate(burst))
            action = partial(transmit_all, a.port, burst)
        elif kind == "bw":
            action = partial(link.set_bandwidth, arg)
        elif kind == "down":
            action = link.admin_down
        elif kind == "up":
            action = link.admin_up
        else:
            action = partial(link.set_loss, arg)
        sim.call_at(t, action)
        sim.call_at(t + SAMPLE_SKEW, sample)
    sim.run()
    index = {id(f): i for i, f in frames.items()}
    arrivals = [(when, index[id(f)]) for when, f in b.received]
    pipe = link.ab
    return (arrivals, pipe.drops, pipe.frames_lost, pipe.frames_dropped_down,
            pipe.bytes_sent, pipe.frames_sent, samples)


@given(seed=st.integers(0, 2**16),
       latency=st.sampled_from([0.0, 1e-4, 3e-3]),
       bandwidth_bps=st.sampled_from(BANDWIDTHS),
       capacity=st.integers(1, 4),
       loss=st.sampled_from([0.0, 0.0, 0.3]),
       script=st.lists(st.tuples(st.sampled_from([0, 0, 1, 3, 7, 20, 100]), step),
                       max_size=40))
@example(seed=0, latency=0.0, bandwidth_bps=333_331.0, capacity=4, loss=0.0,
         script=[(0, ("frame", (1000, 3))), (1, ("bw", None)), (1, ("frame", (10, 1)))])
@example(seed=0, latency=0.0, bandwidth_bps=1_111_117.0, capacity=1, loss=0.0,
         script=[(0, ("frame", (500, 3)))])
@settings(max_examples=200, deadline=None)
def test_pipe_matches_the_serializer_oracle(seed, latency, bandwidth_bps, capacity,
                                            loss, script):
    # The explicit examples unshape the link under a backlog of two (the
    # completion must then send every waiting frame at once), and overflow
    # a one-frame queue.
    args = (seed, latency, bandwidth_bps, capacity, loss, script)
    assert drive(False, *args) == drive(True, *args)


def entries_for(n_frames, bandwidth_bps, loss=0.0):
    """Calendar entries to carry ``n_frames`` back-to-back frames a -> b."""
    sim, a, b, link = build(0, 1e-3, bandwidth_bps, 8, loss, oracle=False)
    for _ in range(n_frames):
        a.port.transmit(frame_of(100))
    sim.run()
    assert len(b.received) == n_frames
    return sim.events_dispatched


def test_idle_lossless_shaped_link_costs_one_entry():
    assert entries_for(1, 1e6) == 1


def test_queued_frame_costs_two_entries():
    # The first finds the link idle; the second waits for its completion.
    assert entries_for(2, 1e6) == 1 + 2


def test_lossy_link_costs_two_entries():
    # The loss is drawn when serialization ends; this one survives it.
    assert entries_for(1, 1e6, loss=1e-9) == 2


def test_unshaped_link_costs_one_entry():
    assert entries_for(1, None) == 1
    assert entries_for(3, None) == 3


def test_counters_include_a_frame_once_its_transmission_time_has_passed():
    sim, a, b, link = build(0, 0.5, 1e6, 8, 0.0, oracle=False)
    frame = frame_of(1000)
    a.port.transmit(frame)
    tx = frame.size * 8.0 / 1e6
    sim.run(until=tx / 2)
    assert (link.ab.bytes_sent, link.ab.frames_sent) == (0, 0)
    sim.run(until=tx * 1.5)
    assert (link.ab.bytes_sent, link.ab.frames_sent) == (frame.size, 1)
    assert b.received == []  # still propagating

"""Unit tests for the Store FIFO and the Serializer station."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.sim import QueueFull, Serializer, SimulationError, Simulator, Store
from repro.sim.queues import _IDLE


def test_put_then_get_immediate():
    sim = Simulator()
    store = Store(sim)
    results = []

    def proc(sim):
        yield store.put("a")
        item = yield store.get()
        results.append(item)

    sim.process(proc(sim))
    sim.run()
    assert results == ["a"]


def test_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    results = []

    def getter(sim):
        item = yield store.get()
        results.append((sim.now, item))

    def putter(sim):
        yield sim.timeout(5)
        yield store.put("late")

    sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert results == [(5.0, "late")]


def test_fifo_order_of_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(getter(sim, "g1"))
    sim.process(getter(sim, "g2"))

    def putter(sim):
        yield sim.timeout(1)
        yield store.put("first")
        yield store.put("second")

    sim.process(putter(sim))
    sim.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_bounded_put_blocks_until_space():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim):
        yield store.put(1)
        timeline.append(("put1", sim.now))
        yield store.put(2)
        timeline.append(("put2", sim.now))

    def consumer(sim):
        yield sim.timeout(10)
        item = yield store.get()
        timeline.append(("got", item, sim.now))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert timeline[0] == ("put1", 0.0)
    assert ("got", 1, 10.0) in timeline
    assert ("put2", 10.0) in timeline


def test_put_nowait_raises_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    store.put_nowait("a")
    store.put_nowait("b")
    with pytest.raises(QueueFull):
        store.put_nowait("c")


def test_try_put_drop_tail():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    assert len(store) == 1


def test_get_nowait_empty_is_error():
    sim = Simulator()
    store = Store(sim)
    with pytest.raises(SimulationError):
        store.get_nowait()


def test_get_nowait_admits_blocked_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    events = []

    def producer(sim):
        yield store.put("a")
        ev = store.put("b")
        yield ev
        events.append("b-admitted")

    sim.process(producer(sim))
    sim.run()
    assert events == []
    assert store.get_nowait() == "a"
    sim.run()
    assert events == ["b-admitted"]
    assert store.get_nowait() == "b"


def test_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def station(sim, capacity=8, service_time=1.0):
    """A Serializer recording ``(finish_time, item)``; ``service_time``
    may be a number or a callable."""
    served = []
    cost = service_time if callable(service_time) else (lambda _item: service_time)
    st = Serializer(sim, capacity, cost,
                    lambda item: served.append((sim.now, item)))
    return st, served


def test_serializer_idle_start_costs_one_calendar_entry():
    sim = Simulator()
    st, served = station(sim, service_time=0.5)
    assert st.offer("a")
    assert served == []  # held for its service time, not passed through
    sim.run()
    assert served == [(0.5, "a")]
    assert sim.events_dispatched == 1


def test_serializer_fifo_under_back_to_back_offers():
    sim = Simulator()
    st, served = station(sim)
    for item in "abc":
        assert st.offer(item)
    sim.run()
    assert served == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
    assert sim.events_dispatched == 3  # one entry per served item


def test_serializer_capacity_and_drops():
    """Capacity is ``capacity`` waiting plus one in service, from the
    first item on."""
    sim = Simulator()
    st, served = station(sim, capacity=2)
    assert [st.offer(i) for i in range(5)] == [True, True, True, False, False]
    assert st.drops == 2
    sim.run()
    assert [item for _t, item in served] == [0, 1, 2]
    assert st.offer(5)  # room again once drained
    with pytest.raises(SimulationError):
        Serializer(sim, 0, lambda _i: 1.0, lambda _i: None)


def test_serializer_falsy_service_time_passes_through():
    for falsy in (None, 0, 0.0):
        sim = Simulator()
        st, served = station(sim, capacity=1, service_time=falsy)
        assert st.offer("a") and st.offer("b")  # nothing is ever held
        assert served == [(0.0, "a"), (0.0, "b")]
        sim.run()
        assert sim.events_dispatched == 0
        assert st.drops == 0


def test_serializer_offer_from_inside_done():
    """``done`` may feed the station: the new item waits its turn behind
    whatever is already queued."""
    sim = Simulator()
    served = []

    def done(item):
        served.append((sim.now, item))
        if item == "a":
            assert st.offer("a-again")

    st = Serializer(sim, 8, lambda _item: 1.0, done)
    st.offer("a")
    st.offer("b")
    sim.run()
    assert served == [(1.0, "a"), (2.0, "b"), (3.0, "a-again")]


def test_serializer_reshaped_while_items_wait():
    """Link reshaping: the item in service finishes at the old rate, the
    waiting ones are served at the new one — including "unshaped", which
    drains them all in the same instant without recursion."""
    sim = Simulator()
    rate = {"t": 1.0}
    st, served = station(sim, service_time=lambda _item: rate["t"])
    for item in "abcd":
        st.offer(item)
    sim.run(until=0.5)
    rate["t"] = 0.25
    sim.run(until=1.3)
    assert served == [(1.0, "a"), (1.25, "b")]
    rate["t"] = None
    sim.run()
    assert served == [(1.0, "a"), (1.25, "b"), (1.5, "c"), (1.5, "d")]
    assert st.offer("e") and served[-1] == (1.5, "e")  # idle and unshaped


def test_serializer_done_offering_twice_keeps_both():
    """``done`` offering two items to an idle, empty station: the first
    starts service inside ``offer``, the second waits behind it."""
    sim = Simulator()
    served = []

    def done(item):
        served.append((sim.now, item))
        if item == "a":
            st.offer("b")
            st.offer("c")

    st = Serializer(sim, 8, lambda _item: 1.0, done)
    st.offer("a")
    sim.run()
    assert served == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


class FifoModel:
    """The reference: one server, a deque and a clock. An arrival at the
    instant the server frees is admitted first (it was on the calendar
    before the completion); the k-th completion offers ``spawn[k]`` new
    items before the next waiting item enters service."""

    def __init__(self, capacity, service, spawn):
        self.capacity, self.service, self.spawn = capacity, service, spawn
        self.queue = deque()
        self.busy = None  # (finish time, item)
        self.served, self.dropped = [], []
        self.next_item = 1000

    def offer(self, now, item):
        if self.busy is None and not self.queue:
            self.busy = (now + self.service(item), item)
        elif len(self.queue) < self.capacity:
            self.queue.append(item)
        else:
            self.dropped.append(item)

    def run(self, arrivals):
        arrivals = deque(arrivals)
        while arrivals or self.busy:
            if arrivals and (self.busy is None or arrivals[0][0] <= self.busy[0]):
                self.offer(*arrivals.popleft())
                continue
            now, item = self.busy
            self.busy = None
            k = len(self.served)
            self.served.append((now, item))
            for _ in range(self.spawn[k] if k < len(self.spawn) else 0):
                self.offer(now, self.next_item)
                self.next_item += 1
            if self.busy is None and self.queue:
                nxt = self.queue.popleft()
                self.busy = (now + self.service(nxt), nxt)


@settings(max_examples=200, deadline=None)
@given(capacity=hst.integers(1, 4),
       gaps=hst.lists(hst.integers(0, 8), min_size=1, max_size=12),
       costs=hst.lists(hst.integers(1, 6), min_size=1, max_size=8),
       spawn=hst.lists(hst.integers(0, 3), max_size=16))
def test_serializer_matches_a_single_server_fifo(capacity, gaps, costs, spawn):
    """Differential check of the station against :class:`FifoModel` on
    served order, instants and drops, with ``done`` offering 0-3 items;
    after every calendar step, every offered item is served, dropped,
    waiting or in service."""
    def service(item):  # quarter seconds: every instant is exact
        return costs[item % len(costs)] / 4

    arrivals, t = [], 0.0
    for i, gap in enumerate(gaps):
        t += gap / 4
        arrivals.append((t, i))
    model = FifoModel(capacity, service, spawn)
    model.run(arrivals)

    sim = Simulator()
    served, offered = [], []
    next_item = [1000]

    def offer(item):
        offered.append(item)
        st.offer(item)

    def done(item):
        k = len(served)
        served.append((sim.now, item))
        for _ in range(spawn[k] if k < len(spawn) else 0):
            offer(next_item[0])
            next_item[0] += 1

    st = Serializer(sim, capacity, service, done)
    for when, item in arrivals:
        sim.call_at(when, lambda item=item: offer(item))
    while sim.peek() != float("inf"):
        sim.step()
        in_service = st._serving is not _IDLE
        assert len(offered) == len(served) + st.drops + len(st.items) + in_service
    assert served == model.served
    assert st.drops == len(model.dropped)

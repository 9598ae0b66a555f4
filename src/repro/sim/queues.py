"""The two queueing primitives: a FIFO to wait on and a station that serves.

:class:`Store` is for code that *waits*: an optionally capacity-bounded
FIFO whose ``get()``/``put()`` return events a process can ``yield`` on
(TCP accept queues and receive buffers, application mailboxes).

:class:`Serializer` is for code that *reacts*: a drop-tail waiting room in
front of a single server that calls ``done(item)`` when each item's service
time has elapsed — a tap's ``read()`` loop, a user-level stack's CPU. It
runs on the kernel fast lane: no process, one calendar entry per served
item. A link does not sit behind one: its ``done`` would only schedule
the arrival, so ``net.l2._Pipe`` schedules that directly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["QueueFull", "Serializer", "Store"]


class QueueFull(Exception):
    """Raised by :meth:`Store.put_nowait` when a bounded store is full."""


class Store:
    """FIFO of items with blocking get/put via events.

    ``capacity=None`` means unbounded. Waiters are served strictly FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    # -- blocking interface --------------------------------------------
    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is enqueued (immediately unless full)."""
        ev = Event(self.sim)
        if not self.is_full:
            self._deliver(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    # -- non-blocking interface ------------------------------------------
    def put_nowait(self, item: Any) -> None:
        """Enqueue or raise :class:`QueueFull`."""
        if self.is_full:
            raise QueueFull()
        self._deliver(item)

    def try_put(self, item: Any) -> bool:
        """Enqueue and return True, or return False when full (drop-tail)."""
        if self.is_full:
            return False
        self._deliver(item)
        return True

    def get_nowait(self) -> Any:
        """Dequeue or raise :class:`SimulationError` when empty."""
        if not self.items:
            raise SimulationError("get_nowait on empty store")
        item = self.items.popleft()
        self._admit_putter()
        return item

    # -- internals -------------------------------------------------------
    def _deliver(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self._deliver(item)
            ev.succeed(item)


_IDLE = object()  # nothing in service (an item may legitimately be None)


class Serializer:
    """Drop-tail queue in front of one server, callback-driven.

    ``service_time(item)`` is asked when an item *enters service*, so a
    station reshaped while items wait serves them at the new rate and
    lets the one in service finish at the old. A falsy service time means
    the item is not held at all: ``done`` runs inside ``offer`` and no
    calendar entry is made. Capacity is defined from the first item:
    ``capacity`` waiting plus one in service; an offer beyond that is
    dropped and counted in ``drops``. ``done`` may call ``offer``.
    """

    __slots__ = ("sim", "capacity", "service_time", "done", "items", "drops",
                 "_serving", "_finish_cb")

    def __init__(self, sim: Simulator, capacity: int,
                 service_time: Callable[[Any], Optional[float]],
                 done: Callable[[Any], None]) -> None:
        if capacity < 1:
            raise SimulationError(f"serializer capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.service_time = service_time
        self.done = done
        self.items: deque[Any] = deque()
        self.drops = 0
        self._serving: Any = _IDLE
        self._finish_cb = self._finish  # bind once, not per item

    def offer(self, item: Any) -> bool:
        """Admit ``item`` (True) or drop it because the room is full."""
        if self._serving is _IDLE and not self.items:
            delay = self.service_time(item)
            if delay:
                self._serving = item
                self.sim.call_in(delay, self._finish_cb)
            else:
                self.done(item)
            return True
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        self.drops += 1
        return False

    def _finish(self) -> None:
        item, self._serving = self._serving, _IDLE
        self.done(item)
        # Pull waiting items; a loop, not recursion, in case the station
        # was reshaped to a zero service time while they waited. Anything
        # ``done`` offers meanwhile joins the back of the room.
        items = self.items
        while items:
            item = items.popleft()
            delay = self.service_time(item)
            if delay:
                self._serving = item
                self.sim.call_in(delay, self._finish_cb)
                return
            self.done(item)

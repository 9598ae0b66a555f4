"""Event loop, events, and generator-based processes.

The design mirrors SimPy's proven semantics but is intentionally smaller:

* :class:`Event` — one-shot waitable with a value or an exception.
* :class:`Timeout` — event that fires after a fixed delay.
* :class:`Process` — wraps a generator; each ``yield`` must produce an
  :class:`Event` (or a :class:`Process`, which waits for termination).
* :class:`AnyOf` — wait for the first of several events.
* :class:`Interrupt` — exception thrown into a waiting process by
  :meth:`Process.interrupt`.

Processes resume in deterministic order: the calendar is keyed by
``(time, seq)`` where ``seq`` increases monotonically with every schedule
operation.

``run`` and ``step`` share one dispatch loop (:meth:`Simulator._dispatch`)
that pops and unpacks each calendar entry once. Two calendar fast paths
keep the per-frame hot loops cheap:

* :meth:`Simulator.call_in` / :meth:`Simulator.call_at` push a bare
  callable onto the calendar — no :class:`Event`, no callback list, no
  lambda. The entry is ``(time, seq, None, fn)``; ``(time, seq)`` stays
  the ordering key, so fast-lane entries interleave deterministically
  with events.
* :meth:`Simulator.timer` returns a tiny cancelable :class:`Timer`
  handle. Cancelation is *lazy*: the heap entry stays put but is skipped
  (without advancing the clock or counting as a dispatch) when popped,
  and the calendar is compacted once canceled entries dominate — so
  rearmed keepalives, interrupted sleeps, and TCP retransmit timers do
  not leak calendar entries.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from heapq import heapify, heappop, heappush
from typing import Any

__all__ = [
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Timer",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    ``cause`` carries an arbitrary payload supplied by the interrupter
    (e.g. the reason a migration was aborted).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the calendar, callbacks not yet run
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # scheduled, then canceled; skipped when popped

_INF = float("inf")


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* with either a value (:meth:`succeed`) or an
    exception (:meth:`fail`); its callbacks then run at the current
    simulation time. Triggering twice is an error — events are one-shot.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exc", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._state = _PENDING
        self._value: Any = None
        self._exc: BaseException | None = None
        # A failed event whose exception was delivered to (or absorbed by)
        # some waiter is "defused"; undefused failures crash the run so
        # model bugs cannot silently vanish.
        self._defused = False

    # -- inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (callbacks may be pending)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _TRIGGERED
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = _TRIGGERED
        self._exc = exc
        self.sim._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run."""
        self._defused = True

    # -- internal -----------------------------------------------------
    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if self._exc is not None and not self._defused:
            raise self._exc

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (same semantics SimPy users rely on).
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """Event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._state = _TRIGGERED
        self._value = value
        sim._schedule(self, delay=delay)

    def cancel(self) -> None:
        """Lazily cancel: the calendar entry stays on the heap but is
        skipped when popped (no clock advance, no dispatch counted).

        Only legal when the caller owns every waiter — canceling a
        timeout someone else still waits on would strand that waiter.
        A timeout whose callbacks already ran is left untouched.
        """
        if self._state == _TRIGGERED:
            self._state = _CANCELLED
            self.callbacks = None  # drop waiter refs now, not at fire time
            self._value = None
            self.sim._note_cancel()


class Timer:
    """Cancelable fast-lane timer: runs ``fn()`` at ``when`` unless
    canceled first. Far cheaper than ``Timeout`` + callback — no Event
    state machine, no callback list — and a canceled timer is lazily
    skipped (and eventually compacted away) instead of dispatched.
    Created via :meth:`Simulator.timer`.
    """

    __slots__ = ("sim", "fn", "when")

    def __init__(self, sim: "Simulator", fn: Callable[[], None], when: float) -> None:
        self.sim = sim
        self.fn: Callable[[], None] | None = fn
        self.when = when

    @property
    def active(self) -> bool:
        """True until the timer fires or is canceled."""
        return self.fn is not None

    def cancel(self) -> None:
        if self.fn is not None:
            self.fn = None
            self.sim._note_cancel()


class AnyOf(Event):
    """Fires when the first child event succeeds (or any fails)."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            if ev._exc is not None:
                ev.defuse()
            return
        if ev._exc is not None:
            ev.defuse()
            self.fail(ev._exc)
        else:
            self.succeed({e: e._value for e in self.events
                          if e.processed and e._exc is None})
        self._cancel_pending_timeouts()

    def _cancel_pending_timeouts(self) -> None:
        """Once the condition is decided, losing Timeout children whose
        only waiter is this condition are dead weight on the calendar —
        cancel them (the ``any_of([data, deadline])`` pattern otherwise
        leaks one calendar entry per iteration)."""
        for ev in self.events:
            if (ev.__class__ is Timeout and ev._state == _TRIGGERED
                    and ev.callbacks is not None and len(ev.callbacks) == 1):
                ev.cancel()


class Process(Event):
    """A running generator; also an event that fires on termination.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event succeeds, its value is sent back into the generator; when it
    fails, the exception is thrown in. ``yield`` on another
    :class:`Process` waits for that process to terminate.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        self._waiting_on = boot
        boot.add_callback(self._resume)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is not waiting (i.e. scheduled to resume right now) is
        delivered before its next resume.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            # The abandoned wait: if it is a Timeout nobody else waits
            # on, cancel it so the calendar does not accumulate dead
            # entries (keepalive/punch loops interrupt these constantly).
            if (target.__class__ is Timeout and target.callbacks is not None
                    and len(target.callbacks) == 1):
                target.cancel()
        self.sim.call_in(0.0, lambda: self._throw_interrupt(cause))

    def _throw_interrupt(self, cause: Any) -> None:
        if not self.is_alive:
            return  # died between interrupt() and delivery
        self._step(self.generator.throw, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up (we were interrupted away from this event)
        self._waiting_on = None
        if event._exc is not None:
            event.defuse()
            self._step(self.generator.throw, event._exc)
        else:
            self._step(self.generator.send, event._value)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            target = advance(arg)  # generator.send(value) / .throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # Generator re-raised the interrupt without handling it:
            # treat as process failure.
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            sim._active_process = prev
        if target is self:
            raise SimulationError(f"process {self.name!r} cannot wait on itself")
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; yield Event/Process only"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator(seed=7)

        def hello(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(hello(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        # Calendar entries are heap tuples ordered by (time, seq):
        #   (time, seq, event, None)     — a triggered Event
        #   (time, seq, None, callable)  — fast-lane call_in/call_at/timer
        # seq is unique, so comparison never reaches the third element;
        # one shape, so the dispatch loop unpacks an entry in one step.
        self._calendar: list[tuple] = []
        self._seq = 0
        self._cancelled = 0  # canceled entries still parked on the heap
        self._active_process: Process | None = None
        self.events_dispatched = 0
        from repro.obs import MetricsRegistry, Tracer
        from repro.sim.lifecycle import ComponentRegistry
        from repro.sim.rng import RngRegistry

        self.rng = RngRegistry(seed)
        # Observability spine: one registry and one tracer per run.
        self.metrics = MetricsRegistry(self)
        self.trace = Tracer(self)
        # Failure plane: every lifecycle-aware component registers here.
        self.components = ComponentRegistry(self)

    # -- factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Fast lane: run ``fn()`` at absolute time ``when`` (>= now).

        Pushes the bare callable onto the calendar — no Event, no
        callback list. Not cancelable; use :meth:`timer` for that.
        """
        if when < self.now:
            raise SimulationError(f"call_at({when}) is in the past (now={self.now})")
        self._seq = seq = self._seq + 1
        heappush(self._calendar, (when, seq, None, fn))

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Fast lane: run ``fn()`` after ``delay`` time units (see
        :meth:`call_at`)."""
        if delay < 0:
            raise SimulationError(f"negative call_in delay {delay!r}")
        self._seq = seq = self._seq + 1
        heappush(self._calendar, (self.now + delay, seq, None, fn))

    def timer(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Cancelable fast lane: run ``fn()`` after ``delay`` unless the
        returned :class:`Timer` is canceled first."""
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay!r}")
        t = Timer(self, fn, self.now + delay)
        self._seq = seq = self._seq + 1
        heappush(self._calendar, (t.when, seq, None, t))
        return t

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._calendar, (self.now + delay, seq, event, None))

    def _note_cancel(self) -> None:
        """Bookkeeping for lazy cancelation; compacts the calendar when
        canceled entries dominate so timer churn cannot grow the heap
        without bound."""
        self._cancelled += 1
        if self._cancelled >= 64 and self._cancelled * 2 > len(self._calendar):
            self._compact()

    def _compact(self) -> None:
        live = []
        for entry in self._calendar:
            item = entry[2]
            if item is None:
                fn = entry[3]
                if fn.__class__ is Timer and fn.fn is None:
                    continue
            elif item._state == _CANCELLED:
                continue
            live.append(entry)
        heapify(live)  # (time, seq) keys are untouched: order is preserved
        # In place: the dispatch loop holds the calendar in a local, and a
        # rebound list would leave it draining a stale heap.
        self._calendar[:] = live
        self._cancelled = 0

    # -- execution ----------------------------------------------------
    def peek(self) -> float:
        """Time of the next live entry, or ``inf`` if none remain.

        Canceled entries reached at the head are popped here (lazy
        removal) so the reported time is always a real upcoming event.
        """
        cal = self._calendar
        while cal:
            entry = cal[0]
            item = entry[2]
            if item is None:
                fn = entry[3]
                if fn.__class__ is not Timer or fn.fn is not None:
                    return entry[0]
            elif item._state != _CANCELLED:
                return entry[0]
            heappop(cal)
            self._cancelled -= 1
        return _INF

    def step(self) -> None:
        """Dispatch the next live calendar entry.

        Canceled entries encountered on the way are discarded without
        advancing the clock or counting as a dispatch; if only canceled
        entries remained, the calendar drains quietly.
        """
        if not self._calendar:
            raise SimulationError("step() on an empty calendar")
        self._dispatch(_INF, False, None, once=True)

    def _dispatch(self, limit: float, strict: bool, stop: Event | None,
                  once: bool = False) -> None:
        """The one dispatch loop behind :meth:`run` and :meth:`step`: run
        live entries in ``(time, seq)`` order while their time is at most
        ``limit`` (below it when ``strict``), until ``stop`` triggers, or
        — ``once`` — until one has run.

        Each entry is popped and unpacked once. ``now`` and
        ``events_dispatched`` are written before the callback runs, so
        both read exactly from inside it; the calendar is a local, which
        is why :meth:`_compact` must never rebind it.
        """
        cal = self._calendar
        while cal:
            if stop is not None and stop._state != _PENDING:
                return
            entry = heappop(cal)
            when, _seq, item, fn = entry
            if when >= limit and (strict or when > limit):
                heappush(cal, entry)  # past the horizon: back it goes, same key
                return
            if item is None:
                if fn.__class__ is Timer:
                    cb = fn.fn
                    if cb is None:
                        self._cancelled -= 1
                        continue
                    fn.fn = None
                    fn = cb
                self.now = when
                self.events_dispatched += 1
                fn()
            elif item._state == _CANCELLED:
                self._cancelled -= 1
                continue
            else:
                self.now = when
                self.events_dispatched += 1
                item._run_callbacks()
            if once:
                return

    def run_coro(self, coro: Generator[Event, Any, Any] | Process,
                 name: str | None = None) -> Any:
        """Schedule a process coroutine, run until it terminates, and
        return its value — replaces the ``run(until=sim.process(coro))``
        boilerplate. Accepts an already-created :class:`Process` too."""
        proc = coro if isinstance(coro, Process) else self.process(coro, name=name)
        return self.run(until=proc)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the calendar drains, ``until`` time passes, or an
        ``until`` event triggers (its value is returned)."""
        if isinstance(until, Event):
            self._dispatch(_INF, False, until)
            if until._state == _PENDING:
                raise SimulationError(
                    "run(until=event): calendar drained before event triggered"
                )
            if until._exc is not None:
                # The awaited event failed: surface the failure to the
                # caller instead of silently returning None (its waiters,
                # if any, already defused it).
                raise until._exc
            return until._value
        horizon = _INF if until is None else float(until)
        if horizon < self.now:
            raise SimulationError(f"run(until={horizon}) is in the past (now={self.now})")
        # No horizon: strictly below inf, so an entry parked at t=inf never runs.
        self._dispatch(horizon, horizon == _INF, None)
        if horizon != _INF:
            self.now = horizon
        return None

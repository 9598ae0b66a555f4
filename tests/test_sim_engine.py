"""Unit tests for the discrete-event kernel (events, processes, run loop)."""

import pytest

from repro.sim import (
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5
    assert p.value == 2.5


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def maker(tag):
        def proc(sim):
            yield sim.timeout(1.0)
            order.append(tag)
        return proc

    for tag in ("a", "b", "c"):
        sim.process(maker(tag)(sim))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim):
        val = yield ev
        seen.append(val)

    def firer(sim):
        yield sim.timeout(3)
        ev.succeed(42)

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert seen == [42]
    assert sim.now == 3


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        sim.run()


def test_process_failure_propagates_to_joiner():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise KeyError("inner")

    def joiner(sim):
        try:
            yield sim.process(bad(sim))
        except KeyError:
            return "caught"

    p = sim.process(joiner(sim))
    sim.run()
    assert p.value == "caught"


def test_process_wait_on_process_gets_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "child-result"


def test_interrupt_delivered_with_cause():
    sim = Simulator()
    causes = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            causes.append(i.cause)
            return "interrupted"

    def interrupter(sim, target):
        yield sim.timeout(2)
        target.interrupt(cause="stop-now")

    p = sim.process(sleeper(sim))
    sim.process(interrupter(sim, p))
    sim.run()
    assert causes == ["stop-now"]
    assert p.value == "interrupted"
    # The stale 100 s timeout is canceled on interrupt, so the run ends
    # at the interrupt time instead of draining a dead calendar entry.
    assert sim.now == pytest.approx(2)


def test_interrupted_process_does_not_wake_on_stale_event():
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield sim.timeout(10)
            trace.append("woke-normally")
        except Interrupt:
            trace.append("interrupted")
            yield sim.timeout(50)
            trace.append("second-sleep-done")

    def interrupter(sim, target):
        yield sim.timeout(1)
        target.interrupt()

    p = sim.process(sleeper(sim))
    sim.process(interrupter(sim, p))
    sim.run()
    assert trace == ["interrupted", "second-sleep-done"]
    assert p.ok


def test_interrupt_dead_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(100)

    def interrupter(sim, target):
        yield sim.timeout(1)
        target.interrupt()

    def joiner(sim, target):
        try:
            yield target
        except Interrupt:
            return "saw-interrupt"

    p = sim.process(sleeper(sim))
    sim.process(interrupter(sim, p))
    j = sim.process(joiner(sim, p))
    sim.run()
    assert j.value == "saw-interrupt"


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1, value="fast")
        t2 = sim.timeout(2, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        return result

    p = sim.process(proc(sim))
    sim.run()
    assert list(p.value.values()) == ["fast"]
    # The losing sibling timeout is canceled when the condition fires,
    # so the run ends at the winner's time, not the loser's.
    assert sim.now == 1


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1)

    sim.process(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5
    sim.run(until=7.25)
    assert sim.now == 7.25


def test_run_until_event():
    sim = Simulator()
    done = sim.event()

    def proc(sim):
        yield sim.timeout(3)
        done.succeed("finished")

    sim.process(proc(sim))
    value = sim.run(until=done)
    assert value == "finished"
    assert sim.now == 3


def test_run_until_event_never_fires_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.run(until=sim.event())


def test_run_until_past_is_error():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_call_at_and_call_in():
    sim = Simulator()
    hits = []
    sim.call_at(4.0, lambda: hits.append(("at", sim.now)))
    sim.call_in(1.5, lambda: hits.append(("in", sim.now)))
    sim.run()
    assert hits == [("in", 1.5), ("at", 4.0)]


def test_call_at_past_is_error():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.call_at(3, lambda: None)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_is_failure():
    sim = Simulator()

    def bad(sim):
        yield 42

    def joiner(sim, target):
        try:
            yield target
        except SimulationError:
            return "rejected"

    p = sim.process(bad(sim))
    j = sim.process(joiner(sim, p))
    with pytest.raises(SimulationError):
        sim.run()


def test_active_process_tracking():
    sim = Simulator()
    observed = []

    def proc(sim):
        observed.append(sim._active_process)
        yield sim.timeout(1)
        observed.append(sim._active_process)

    p = sim.process(proc(sim))
    sim.run()
    assert observed == [p, p]
    assert sim._active_process is None


def test_immediate_return_process():
    sim = Simulator()

    def noop(sim):
        return "done"
        yield  # pragma: no cover

    p = sim.process(noop(sim))
    sim.run()
    assert p.value == "done"
    assert sim.now == 0


def test_determinism_two_identical_runs():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        log = []

        def worker(sim, tag):
            rng = sim.rng.stream(f"worker.{tag}")
            for _ in range(5):
                yield sim.timeout(float(rng.uniform(0.1, 1.0)))
                log.append((tag, round(sim.now, 9)))

        for tag in ("x", "y", "z"):
            sim.process(worker(sim, tag))
        sim.run()
        return log

    assert build_and_run(42) == build_and_run(42)
    assert build_and_run(42) != build_and_run(43)


# ----------------------------------------------------------------------
# Kernel fast path: call_in/call_at fast lane, cancelable timers, lazy
# calendar removal.
# ----------------------------------------------------------------------

def test_fast_lane_and_events_share_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim):
        order.append("init")
        yield sim.timeout(2.0)
        order.append("proc@2")

    sim.process(proc(sim))
    sim.call_in(2.0, lambda: order.append("lane@2"))
    sim.call_at(1.0, lambda: order.append("lane@1"))
    sim.run()
    # Fast-lane callables and process wakeups share one (time, seq)
    # keyspace: at t=2 the call_in fires first because it was scheduled
    # before the process reached its timeout.
    assert order == ["init", "lane@1", "lane@2", "proc@2"]


def test_fast_lane_rejects_past_and_negative():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(-1.0, lambda: None)


def test_timer_fires_once_and_deactivates():
    sim = Simulator()
    fired = []
    t = sim.timer(1.5, lambda: fired.append(sim.now))
    assert t.active
    assert t.when == 1.5
    sim.run()
    assert fired == [1.5]
    assert not t.active


def test_timer_cancel_before_fire():
    sim = Simulator()
    fired = []
    t = sim.timer(5.0, lambda: fired.append("late"))
    sim.call_in(1.0, t.cancel)
    sim.run()
    assert fired == []
    assert not t.active
    # The canceled entry neither fires nor advances the clock.
    assert sim.now == 1.0
    assert sim.peek() == float("inf")


def test_timeout_cancel_is_lazy_and_uncounted():
    sim = Simulator()
    stale = sim.timeout(100.0)
    sim.timeout(1.0)
    stale.cancel()
    sim.run()
    assert sim.now == 1.0
    # Only the live timeout counts as a dispatch.
    assert sim.events_dispatched == 1


def test_interrupted_keepalive_loop_drains_calendar():
    """Regression: interrupting a process parked on a long timeout must
    not leak the timeout on the calendar — stale entries used to keep
    the run alive until the abandoned wake time."""
    sim = Simulator()
    pulses = []

    def keepalive(sim):
        try:
            while True:
                yield sim.timeout(5.0)
                pulses.append(sim.now)
        except Interrupt:
            return

    p = sim.process(keepalive(sim))

    def killer(sim):
        yield sim.timeout(12.0)
        p.interrupt("closed")

    sim.process(killer(sim))
    sim.run()
    assert pulses == [5.0, 10.0]
    # Ends at the interrupt, not at the abandoned t=15 pulse.
    assert sim.now == 12.0
    assert sim.peek() == float("inf")


def test_shared_timeout_survives_losing_any_of():
    sim = Simulator()
    shared = sim.timeout(3.0, value="tick")
    results = []

    def fast_waiter(sim):
        got = yield AnyOf(sim, [sim.timeout(1.0, value="fast"), shared])
        results.append(("fast", list(got.values())))

    def slow_waiter(sim):
        yield shared
        results.append(("slow", sim.now))

    sim.process(fast_waiter(sim))
    sim.process(slow_waiter(sim))
    sim.run()
    # The condition may only reclaim timeouts it exclusively waits on;
    # `shared` has a second waiter and must still fire for it.
    assert ("fast", ["fast"]) in results
    assert ("slow", 3.0) in results


def test_calendar_compaction_reclaims_canceled_bulk():
    sim = Simulator()
    survivor_fired = []
    sim.call_in(1.0, lambda: survivor_fired.append(sim.now))
    timers = [sim.timer(10.0 + i, lambda: None) for i in range(200)]
    for t in timers:
        t.cancel()
    # Lazy removal compacts once canceled entries dominate the heap, so
    # the calendar shrinks well below the 201 scheduled entries.
    assert len(sim._calendar) < 200
    sim.run()
    assert survivor_fired == [1.0]
    assert sim.now == 1.0


def _cancel_storm(sim, log):
    """100 live callbacks at t = 1..100 that log (now, events_dispatched),
    200 doomed timers beyond them, and a callback at t = 10.5 that
    cancels all 200 — enough to compact the calendar mid-loop."""
    for i in range(1, 101):
        sim.call_in(float(i), lambda: log.append((sim.now, sim.events_dispatched)))
    doomed = [sim.timer(1000.0 + i, lambda: log.append("doomed")) for i in range(200)]

    def cancel_all():
        before = sim._calendar
        for t in doomed:
            t.cancel()
        # Compacted (90 live callbacks + few stragglers), and in place.
        assert len(sim._calendar) < 200
        assert sim._calendar is before

    sim.call_in(10.5, cancel_all)


def test_compaction_mid_run_until_event_keeps_every_live_entry():
    """Regression: _compact() used to rebind the calendar, so a loop
    holding it in a local drained a stale heap after >= 64 cancelations
    and run(until=event) raised "calendar drained" with live entries
    still scheduled."""
    sim = Simulator()
    log = []
    _cancel_storm(sim, log)
    done = sim.event()
    sim.call_in(100.5, done.succeed)
    sim.run(until=done)
    assert sim.now == 100.5
    # Every live entry ran, in order; the counter read from inside each
    # callback is exact (the cancel callback at 10.5 is dispatch 11).
    assert log == [(float(i), i if i <= 10 else i + 1) for i in range(1, 101)]
    assert sim.events_dispatched == 102  # 100 + cancel_all + done.succeed
    sim.run()
    assert sim.events_dispatched == 103  # the done event itself; no doomed timer
    assert sim.peek() == float("inf")


def test_compaction_mid_run_until_time_keeps_every_live_entry():
    sim = Simulator()
    log = []
    _cancel_storm(sim, log)
    sim.run(until=49.5)  # the t=50 entry waits
    assert sim.now == 49.5
    assert log == [(float(i), i if i <= 10 else i + 1) for i in range(1, 50)]
    assert sim.events_dispatched == 50
    assert sim.peek() == 50.0
    sim.run()
    assert [t for t, _ in log] == [float(i) for i in range(1, 101)]
    assert sim.events_dispatched == 101
    assert sim.now == 100.0


def test_run_coro_runs_generator_to_completion():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(2.0)
        value = yield sim.timeout(1.0, value="done")
        return value

    assert sim.run_coro(worker(sim)) == "done"
    assert sim.now == 3.0


def test_run_coro_accepts_existing_process():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.5)
        return 42

    proc = sim.process(worker(sim), name="w")
    assert sim.run_coro(proc) == 42


def test_run_coro_reraises_process_failure():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("kaput")

    with pytest.raises(ValueError, match="kaput"):
        sim.run_coro(boom(sim))

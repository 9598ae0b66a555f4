"""Tests for the observability spine (``repro.obs``): the hierarchical
metrics registry and trace spans/events with JSONL export — plus the
instrumentation threaded through the WAVNet driver, rendezvous relay,
and live migration."""

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address
from repro.net.icmp import Pinger
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import Counter, Gauge, Histogram, TimeSeries, path_matches
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        sim = Simulator()
        c1 = sim.metrics.counter("h0.driver.pulse.tx")
        c2 = sim.metrics.counter("h0.driver.pulse.tx")
        assert c1 is c2

    def test_kind_mismatch_raises(self):
        sim = Simulator()
        sim.metrics.counter("x.y")
        with pytest.raises(TypeError):
            sim.metrics.gauge("x.y")

    def test_all_factories(self):
        sim = Simulator()
        m = sim.metrics
        assert isinstance(m.counter("a"), Counter)
        assert isinstance(m.gauge("b"), Gauge)
        assert isinstance(m.series("c"), TimeSeries)
        assert isinstance(m.histogram("e"), Histogram)
        assert len(m) == 4

    def test_scope_prefixes_paths(self):
        sim = Simulator()
        scope = sim.metrics.scope("h0.driver")
        c = scope.counter("frames.tx")
        assert c is sim.metrics.counter("h0.driver.frames.tx")
        nested = scope.scope("relay")
        assert nested.counter("tx") is sim.metrics.counter("h0.driver.relay.tx")

    def test_find_matches_whole_components_only(self):
        reg = MetricsRegistry()
        reg.counter("h0.driver.tx")
        reg.counter("h0.driverx.tx")
        found = reg.find("h0.driver")
        assert set(found) == {"h0.driver.tx"}

    def test_value_shortcut(self):
        sim = Simulator()
        sim.metrics.counter("c").add(3)
        sim.metrics.gauge("g").set(2.5)
        sim.metrics.series("s").record(10.0)
        sim.metrics.series("s").record(20.0)
        assert sim.metrics.value("c") == 3
        assert sim.metrics.value("g") == 2.5
        assert sim.metrics.value("s") == 15.0
        assert sim.metrics.value("missing", default=-1.0) == -1.0

    def test_snapshot_describes_metrics(self):
        sim = Simulator()
        sim.metrics.counter("h0.a").add(2)
        sim.metrics.histogram("h0.b").observe(1.0)
        snap = sim.metrics.snapshot("h0")
        assert snap["h0.a"] == {"kind": "counter", "value": 2}
        assert snap["h0.b"]["kind"] == "histogram"
        assert snap["h0.b"]["n"] == 1

    def test_gauge_inc_dec(self):
        g = Gauge("g")
        g.inc(2)
        g.dec(0.5)
        assert float(g) == 1.5

    def test_histogram_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.mean() == pytest.approx(50.5)
        assert h.count == 100


class TestMonitorShimRemoved:
    def test_legacy_module_is_gone(self):
        # The PR-4 deprecation shim served its one release; the classes
        # live in repro.obs (re-exported from repro.sim).
        with pytest.raises(ModuleNotFoundError):
            import repro.sim.monitor  # noqa: F401


class TestResample:
    def _brute_force(self, times, values, interval, t0, t1):
        edges = np.arange(t0, t1 + interval * 0.5, interval)
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            bucket = [v for t, v in zip(times, values) if lo <= t < hi]
            out.append(sum(bucket) / len(bucket) if bucket else float("nan"))
        return edges[:-1], np.asarray(out)

    def test_matches_brute_force_with_gaps(self):
        sim = Simulator()
        ts = TimeSeries(sim, "x")
        rng = np.random.default_rng(7)
        # Cluster samples so several buckets stay empty.
        times = np.sort(np.concatenate([rng.uniform(0, 3, 40),
                                        rng.uniform(8, 10, 25)]))
        values = rng.normal(5.0, 2.0, times.size)
        for t, v in zip(times, values):
            sim.now = t  # append-only series stamps sim.now
            ts.record(v)
        got_t, got_v = ts.resample(0.5, t0=0.0, t1=10.0)
        want_t, want_v = self._brute_force(times, values, 0.5, 0.0, 10.0)
        assert got_t == pytest.approx(want_t)
        assert np.isnan(got_v).any()  # the 3..8 gap stays visible
        np.testing.assert_allclose(got_v, want_v, equal_nan=True)

    def test_samples_outside_window_ignored(self):
        sim = Simulator()
        ts = TimeSeries(sim, "x")
        for t, v in [(0.5, 1.0), (5.0, 100.0), (9.5, 3.0)]:
            sim.now = t
            ts.record(v)
        _, values = ts.resample(1.0, t0=4.0, t1=6.0)
        assert values.size == 2
        assert math.isnan(values[0])  # [4, 5): no samples
        assert values[1] == pytest.approx(100.0)  # [5, 6): the t=5.0 sample

    def test_empty_series(self):
        ts = TimeSeries(Simulator(), "x")
        t, v = ts.resample(1.0)
        assert t.size == 0 and v.size == 0


class TestTracer:
    def test_span_records_on_end(self):
        sim = Simulator()
        span = sim.trace.begin("punch", host="h0", peer="h1")
        sim.now = 0.25
        span.end(outcome="established")
        assert len(sim.trace) == 1
        rec = sim.trace.spans("punch")[0]
        assert rec["t0"] == 0.0 and rec["t1"] == 0.25
        assert rec["dur"] == pytest.approx(0.25)
        assert rec["attrs"] == {"host": "h0", "peer": "h1",
                                "outcome": "established"}

    def test_span_end_is_idempotent(self):
        sim = Simulator()
        span = sim.trace.begin("x")
        span.end()
        span.end()
        assert len(sim.trace) == 1

    def test_context_manager_records_error(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            with sim.trace.span("phase"):
                raise ValueError("boom")
        rec = sim.trace.spans("phase")[0]
        assert "boom" in rec["attrs"]["error"]

    def test_events_and_names(self):
        tracer = Tracer(Simulator())
        tracer.event("garp", vm="vm1")
        tracer.event("garp", vm="vm2")
        tracer.event("migrate.done")
        assert len(tracer.events("garp")) == 2
        assert tracer.names() == ["garp", "migrate.done"]

    def test_jsonl_round_trip(self, tmp_path):
        sim = Simulator()
        sim.trace.event("e1", n=1)
        sim.trace.begin("s1", who="x").end()
        path = sim.trace.dump_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["event", "span"]
        assert records[0]["attrs"] == {"n": 1}
        assert path.read_text() == sim.trace.to_jsonl() + "\n"
        sim.trace.clear()
        assert sim.trace.dump_jsonl(path).read_text() == ""


class ListOfDictsTracer:
    """The storage ``Tracer`` had before its row tables — one dict per
    record in one list, every reader a scan — kept as the reference the
    tests below compare bytes and footprint against."""

    def __init__(self, sim):
        self.sim, self.records = sim, []

    def event(self, name, **attrs):
        self.records.append({"kind": "event", "name": name,
                             "t": self.sim.now, "attrs": attrs})

    def end_span(self, name, t0, attrs):
        t1 = self.sim.now
        self.records.append({"kind": "span", "name": name, "t0": t0, "t1": t1,
                             "dur": t1 - t0, "attrs": attrs})

    def find(self, name=None, kind=None):
        return [r for r in self.records
                if name in (None, r["name"]) and kind in (None, r["kind"])]

    def names(self):
        return list(dict.fromkeys(r["name"] for r in self.records))

    def export(self, patterns):
        return [r for r in self.records if path_matches(r["name"], patterns)]

    def to_jsonl(self):
        return "\n".join(json.dumps(r, default=str) for r in self.records)


NAMES = ["a", "a.b", "a.b.c", "ab", "fluid.stall", "x"]
PATTERNS = [[], ["*"], ["a"], ["a.b"], ["a*"], ["a.*"], ["?"],
            ["fluid.stall", "x"], ["fluid"], ["nope"]]
_value = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                  st.text(max_size=4), st.builds(IPv4Address, st.integers(0, 2**32 - 1)))
_attrs = st.dictionaries(st.sampled_from(["flow", "n", "peer", "why"]), _value,
                         max_size=3)


@st.composite
def _event_rows(draw):
    """An ``event_rows`` op: one name, one key tuple, rows of values."""
    keys = tuple(draw(st.lists(st.sampled_from(["flow", "n", "peer", "why"]),
                               unique=True, max_size=3)))
    values = draw(st.lists(st.tuples(*[_value] * len(keys)), max_size=5))
    return "event_rows", draw(st.sampled_from(NAMES)), keys, values


_ops = st.lists(st.one_of(
    st.tuples(st.just("event"), st.sampled_from(NAMES), _attrs),
    _event_rows(),
    st.tuples(st.just("begin"), st.sampled_from(NAMES), _attrs),
    st.tuples(st.just("end"), st.integers(0, 7), _attrs),
    st.tuples(st.just("span"), st.sampled_from(NAMES), _attrs),
    st.tuples(st.just("tick"), st.floats(0.0, 10.0)),
    st.tuples(st.just("clear")),
), max_size=40)


def fluid_complete_log(tracer, clock, n=20_000):
    """``n`` events of the shape ``fluid_fanout`` logs per flow."""
    for k in range(n):
        clock.now = k * 1e-3
        tracer.event("fluid.complete", flow=f"f{k}", bytes=65536 + k, seconds=clock.now)
    return tracer


def fluid_complete_rows(tracer, n=20_000):
    """The same log (``t`` and ``seconds`` one float, as there) filed in
    one :meth:`Tracer.event_rows` call."""
    rows = []
    for k in range(n):
        t = k * 1e-3
        rows.append((t, f"f{k}", 65536 + k, t))
    tracer.event_rows("fluid.complete", ("flow", "bytes", "seconds"), rows)
    return tracer


class TestTracerStorage:
    @given(ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_reads_equal_the_list_of_dicts_reference(self, ops):
        """Any interleaving of events, bulk rows, spans and a clear() reads
        back — by record, by name, by kind, by pattern and as JSONL —
        exactly as the one-list-of-dicts log did; ``event_rows`` as one
        ``event`` call per row."""
        clock = SimpleNamespace(now=0.0)
        tracer, ref = Tracer(clock), ListOfDictsTracer(clock)
        opened = []
        for op, *args in ops:
            if op == "event":
                name, attrs = args
                assert tracer.event(name, **attrs) is None
                ref.event(name, **attrs)
            elif op == "event_rows":
                name, keys, values = args
                assert tracer.event_rows(
                    name, keys, [(clock.now, *row) for row in values]) is None
                for row in values:
                    ref.event(name, **dict(zip(keys, row)))
            elif op == "begin":
                name, attrs = args
                opened.append((tracer.begin(name, **attrs), dict(attrs)))
            elif op == "end" and opened:
                index, attrs = args
                span, ref_attrs = opened.pop(index % len(opened))
                span.end(**attrs)
                ref_attrs.update(attrs)
                ref.end_span(span.name, span.t0, ref_attrs)
            elif op == "span":
                name, attrs = args
                with tracer.span(name, **attrs) as span:
                    clock.now += 0.125
                ref.end_span(name, span.t0, dict(attrs))
            elif op == "tick":
                clock.now += args[0]
            elif op == "clear":
                tracer.clear()
                ref.records.clear()
        assert tracer.records == ref.records
        assert len(tracer) == len(ref.records)
        assert tracer.names() == ref.names()
        for name in [None, *NAMES]:
            for kind in (None, "event", "span"):
                assert tracer.find(name, kind) == ref.find(name, kind)
            assert tracer.events(name) == ref.find(name, "event")
            assert tracer.spans(name) == ref.find(name, "span")
        for patterns in PATTERNS:
            assert tracer.export(patterns) == ref.export(patterns)
        assert tracer.to_jsonl() == ref.to_jsonl()

    def test_record_costs_at_most_half_a_list_of_dicts_record(self):
        def traced_bytes(make):
            clock = SimpleNamespace(now=0.0)
            tracemalloc.start()
            try:
                log = fluid_complete_log(make(clock), clock)
                return tracemalloc.get_traced_memory()[0], log
            finally:
                tracemalloc.stop()

        rows, log = traced_bytes(Tracer)
        dicts, ref = traced_bytes(ListOfDictsTracer)
        assert log.records == ref.records
        assert rows <= 0.5 * dicts, (rows, dicts)

    def test_bulk_rows_cost_no_more_than_one_event_per_row(self):
        def traced_bytes(fill):
            clock = SimpleNamespace(now=0.0)
            tracemalloc.start()
            try:
                log = fill(Tracer(clock), clock)
                return tracemalloc.get_traced_memory()[0], log
            finally:
                tracemalloc.stop()

        bulk, log = traced_bytes(lambda tracer, _clock: fluid_complete_rows(tracer))
        single, ref = traced_bytes(fluid_complete_log)
        assert log.records == ref.records
        assert bulk <= single, (bulk, single)

    def test_reads_by_name_leave_other_tables_alone(self):
        clock = SimpleNamespace(now=0.0)
        tracer = fluid_complete_log(Tracer(clock), clock)
        tracer.event("fault", kind="nat_reboot")
        tracemalloc.start()
        try:
            assert len(tracer) == 20_001
            assert [r["attrs"] for r in tracer.events("fault")] == [{"kind": "nat_reboot"}]
            assert tracer.export(["fluid.stall"]) == []
            assert tracer.spans() == []
            assert tracer.names() == ["fluid.complete", "fault"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 20 000 rebuilt records would be ~9 MB
        assert peak < 32 * 1024, peak


class TestEngineAccounting:
    def test_events_dispatched_counts_steps(self):
        sim = Simulator()

        def proc(sim):
            for _ in range(5):
                yield sim.timeout(1.0)

        sim.process(proc(sim), name="ticker")
        sim.run()
        assert sim.events_dispatched >= 5


class TestRunUntilFailedEvent:
    def test_run_reraises_awaited_failure(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("process died")

        p = sim.process(failing(sim))
        with pytest.raises(RuntimeError, match="process died"):
            sim.run(until=p)

    def test_run_returns_value_on_success(self):
        sim = Simulator()

        def ok(sim):
            yield sim.timeout(1.0)
            return 42

        assert sim.run_coro(ok(sim)) == 42


def build_env(n_hosts=2, nat_types=None, **host_kwargs):
    sim = Simulator(seed=31)
    env = WavnetEnvironment(sim)
    nat_types = nat_types or ["port-restricted"] * n_hosts
    for i in range(n_hosts):
        env.add_host(f"h{i}", nat_type=nat_types[i], **host_kwargs)
    started = sim.process(env.start_all())
    sim.run(until=started)
    return sim, env


class TestDriverObservability:
    def test_punch_metrics_and_span(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        m = sim.metrics
        assert m.value("h0.driver.punch.tx") >= 1
        assert m.value("h0.driver.connect.established") == 1
        assert m.value("h0.driver.connect.relayed") == 0
        hist = m.histogram("h0.driver.connect.punch_seconds")
        assert hist.count == 1 and hist.mean() > 0
        span = sim.trace.spans("punch")[0]
        assert span["attrs"]["outcome"] == "established"
        assert span["attrs"]["relayed"] is False
        assert sim.trace.events("established")

    def test_pulse_counters_on_idle_connection(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        sim.run(until=sim.now + 30)
        assert sim.metrics.value("h0.driver.pulse.tx") >= 4
        assert sim.metrics.value("h0.driver.pulse.rx") >= 4

    def test_relay_fallback_counts_relayed_frames(self):
        """Symmetric<->symmetric punching fails; the connection falls back
        to rendezvous relaying, and the obs counters see it end to end."""
        sim, env = build_env(2, nat_types=["symmetric", "symmetric"],
                             punch_timeout=3.0)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        conn = p.value
        assert conn.usable and conn.relayed
        ping = sim.process(Pinger(env.hosts["h0"].host.stack,
                                  env.hosts["h1"].virtual_ip,
                                  interval=0.5, timeout=3.0).run(3))
        sim.run(until=ping)
        assert ping.value.lost == 0
        m = sim.metrics
        assert m.value("h0.driver.connect.punch_failed") == 1
        assert m.value("h0.driver.connect.relayed") == 1
        assert m.value("h0.driver.relay.tx") > 0
        assert m.value("h1.driver.relay.rx") > 0
        # Rendezvous-side relay accounting agrees with its legacy counter.
        rvz = env.rendezvous[0]
        assert m.value("rvz0.rvz.relay.frames") == rvz.frames_relayed > 0
        # Punching itself genuinely timed out; the relayed establishment
        # shows up as the "established" event, not the punch span.
        span = sim.trace.spans("punch")[0]
        assert span["attrs"]["outcome"] == "timeout"
        established = sim.trace.events("established")
        assert established and established[0]["attrs"]["relayed"] is True

    def test_driver_stop_is_idempotent(self):
        sim, env = build_env(2)
        p = sim.process(env.connect_pair("h0", "h1"))
        sim.run(until=p)
        driver = env.hosts["h0"].driver
        driver.stop()
        driver.stop()  # second stop must be a no-op, not an error
        assert not driver.running
        assert len(sim.trace.events("driver.stop")) == 1
        sim.run(until=sim.now + 1.0)


class TestMigrationTrace:
    def test_migration_event_log_dumps_ordered_jsonl(self, tmp_path):
        """Acceptance: one migration run dumps a JSONL log showing
        punch -> established -> migrate.start -> gratuitous ARP ->
        migrate.done with ordered timestamps."""
        from repro.vm.dirty import IdleDirtyModel
        from repro.vm.hypervisor import Hypervisor

        sim, env = build_env(2, tcp_mss=8192)
        mesh = sim.process(env.connect_full_mesh())
        sim.run(until=mesh)
        vmms = {n: Hypervisor(wh.host, wh.driver.attach_port)
                for n, wh in env.hosts.items()}
        vm = vmms["h0"].create_vm("webvm", memory_mb=16,
                                  dirty_model=IdleDirtyModel())
        vm.configure_network("10.99.1.1", "10.99.0.0/16")
        p = sim.process(vmms["h0"].migrate(vm, vmms["h1"],
                                           env.hosts["h1"].virtual_ip))
        sim.run(until=p)

        path = sim.trace.dump_jsonl(tmp_path / "migration.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        names = [r["name"] for r in records]
        for expected in ("punch", "established", "migrate.start",
                         "migrate.round", "garp", "migrate.done", "migrate"):
            assert expected in names, f"{expected} missing from event log"

        def t_of(name):
            rec = next(r for r in records if r["name"] == name)
            return rec["t"] if rec["kind"] == "event" else rec["t0"]

        assert (t_of("punch") <= t_of("established")
                <= t_of("migrate.start") <= t_of("garp") <= t_of("migrate.done"))
        done = next(r for r in records if r["name"] == "migrate.done")
        assert done["attrs"]["vm"] == "webvm"
        assert done["attrs"]["seconds"] > 0
        span = sim.trace.spans("migrate")[-1]
        assert span["dur"] == pytest.approx(p.value.total_time)
        assert sim.trace.spans("migrate.precopy")
        assert sim.trace.spans("migrate.downtime")
        src_host = vmms["h0"].host.name
        dst_host = vmms["h1"].host.name
        assert sim.metrics.value(f"{src_host}.vmm.migrations.out") == 1
        assert sim.metrics.value(f"{dst_host}.vmm.migrations.in") == 1

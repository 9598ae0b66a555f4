"""Tests for RNG streams and measurement probes.

The probe classes live in :mod:`repro.obs.metrics` (re-exported from
``repro.sim``); the old ``repro.sim.monitor`` module is gone.
"""

import numpy as np

from repro.sim import Counter, Simulator, TimeSeries
from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(7).stream("link.loss").random(5)
        b = RngRegistry(7).stream("link.loss").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        reg = RngRegistry(7)
        a = reg.stream("one").random(5)
        b = reg.stream("two").random(5)
        assert not np.array_equal(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(3)
        s = reg1.stream("x")
        s.random(10)  # consume some draws
        next_vals = s.random(3)

        reg2 = RngRegistry(3)
        s2 = reg2.stream("x")
        s2.random(10)
        reg2.stream("brand-new")  # interleaved creation must not matter
        assert np.array_equal(s2.random(3), next_vals)

    def test_seed_changes_streams(self):
        a = RngRegistry(1).stream("n").random(4)
        b = RngRegistry(2).stream("n").random(4)
        assert not np.array_equal(a, b)

    def test_names_listing(self):
        reg = RngRegistry(0)
        reg.stream("b")
        reg.stream("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zz" not in reg


class TestTimeSeries:
    def test_record_and_stats(self):
        sim = Simulator()
        ts = TimeSeries(sim, "t")

        def proc(sim):
            for v in (1.0, 3.0, 5.0):
                ts.record(v)
                yield sim.timeout(1)

        sim.process(proc(sim))
        sim.run()
        assert ts.mean() == 3.0
        assert ts.max() == 5.0
        assert ts.min() == 1.0
        assert len(ts) == 3
        assert np.array_equal(ts.times, [0.0, 1.0, 2.0])

    def test_empty_stats_are_nan(self):
        ts = TimeSeries(Simulator())
        assert np.isnan(ts.mean()) and np.isnan(ts.max()) and np.isnan(ts.min())

    def test_between(self):
        sim = Simulator()
        ts = TimeSeries(sim)

        def proc(sim):
            for v in range(5):
                ts.record(v)
                yield sim.timeout(1)

        sim.process(proc(sim))
        sim.run()
        t, v = ts.between(1.0, 3.0)
        assert list(v) == [1.0, 2.0]

    def test_resample_with_gap_yields_nan(self):
        sim = Simulator()
        ts = TimeSeries(sim)

        def proc(sim):
            ts.record(10)
            yield sim.timeout(0.4)
            ts.record(20)
            yield sim.timeout(2.0)  # gap
            ts.record(30)

        sim.process(proc(sim))
        sim.run()
        t, v = ts.resample(0.5, t0=0.0, t1=2.5)
        assert v[0] == 15.0  # two samples in first bucket
        assert np.isnan(v[2])  # gap bucket

    def test_resample_empty(self):
        ts = TimeSeries(Simulator())
        t, v = ts.resample(1.0)
        assert t.size == 0 and v.size == 0


class TestCounter:
    def test_add_and_int(self):
        c = Counter("pkts")
        c.add()
        c.add(4)
        assert int(c) == 5
        assert "pkts=5" in repr(c)

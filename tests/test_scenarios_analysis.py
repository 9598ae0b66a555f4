"""Tests for scenario builders (real WAN, emulated WAN, PlanetLab) and
the analysis/rendering helpers."""

import numpy as np
import pytest

from repro.analysis.tables import ShapeCheck, render_series, render_table
from repro.net.icmp import Pinger
from repro.scenarios.emulated import build_emulated_wan
from repro.scenarios.planetlab import planetlab_latency_matrix
from repro.scenarios.sites import SITES, build_real_wan, pair_rtt_ms
from repro.sim import Simulator


class TestRealWanScenario:
    def test_pair_rtt_measured_pairs(self):
        assert pair_rtt_ms("hku1", "siat") == pytest.approx(74.244)
        assert pair_rtt_ms("siat", "hku1") == pytest.approx(74.244)

    def test_pair_rtt_composed_via_hku(self):
        assert pair_rtt_ms("aist", "sdsc") == pytest.approx(75.8 + 217.2)

    def test_build_and_ping_matches_table2(self):
        sim = Simulator(seed=41)
        wan = build_real_wan(sim, site_names=["hku1", "siat", "pu"])
        started = sim.process(wan.env.start_all())
        sim.run(until=started)
        mesh = sim.process(wan.env.connect_full_mesh())
        sim.run(until=mesh)
        # Physical ping HKU -> SIAT should be ~74.2 ms.
        p = sim.process(Pinger(wan.host("hku1").host.stack,
                               wan.host("siat").virtual_ip, interval=0.5).run(4))
        sim.run(until=p)
        # Probe 0 pays virtual-LAN ARP; steady state matches Table II.
        steady = p.value.rtts[1:]
        assert sum(steady) / len(steady) * 1000 == pytest.approx(74.244, rel=0.05)

    def test_all_eight_sites_build(self):
        sim = Simulator(seed=42)
        wan = build_real_wan(sim)
        started = sim.process(wan.env.start_all())
        sim.run(until=started)
        assert len(wan.hosts) == 8
        assert set(wan.env.rendezvous[0].host_names()) == set(SITES)


class TestEmulatedWanScenario:
    def test_shaped_bandwidth_applies(self):
        sim = Simulator(seed=43)
        env, hosts = build_emulated_wan(sim, 2, wan_bandwidth_bps=12.5e6)
        for wh in hosts:
            assert wh.site.access_link.ab.bandwidth_bps == 12.5e6

    def test_hosts_connect(self):
        sim = Simulator(seed=44)
        env, hosts = build_emulated_wan(sim, 3)
        started = sim.process(env.start_all())
        sim.run(until=started)
        p = sim.process(env.connect_pair("n00", "n01"))
        sim.run(until=p)
        assert p.value.usable


class TestPlanetlabMatrix:
    def test_shape_and_symmetry(self):
        lm = planetlab_latency_matrix(100, seed=1)
        assert len(lm) == 100
        assert np.allclose(lm.m, lm.m.T)
        assert np.all(np.diag(lm.m) == 0)

    def test_heavy_tail_present(self):
        lm = planetlab_latency_matrix(200, seed=2)
        off = lm.m[~np.eye(200, dtype=bool)]
        assert off.max() > 1.0      # seconds-scale outliers (Fig 12a)
        assert np.median(off) < 0.4  # but the bulk is sub-400ms

    def test_local_clusters_exist(self):
        lm = planetlab_latency_matrix(200, seed=3)
        off = lm.m[~np.eye(200, dtype=bool)]
        assert off.min() < 0.005    # sub-5ms same-site pairs

    def test_deterministic_by_seed(self):
        a = planetlab_latency_matrix(80, seed=7)
        b = planetlab_latency_matrix(80, seed=7)
        c = planetlab_latency_matrix(80, seed=8)
        assert np.array_equal(a.m, b.m)
        assert not np.array_equal(a.m, c.m)

    def test_grouping_on_planetlab_shape(self):
        """Fig 13's qualitative claim: grouped avg latency for small k is
        orders of magnitude below the overall distribution."""
        from repro.core.grouping import locality_sensitive_group
        lm = planetlab_latency_matrix(150, seed=4)
        result = locality_sensitive_group(lm, 8)
        off = lm.m[~np.eye(150, dtype=bool)]
        assert result.average_latency < np.median(off) / 10


class TestAnalysisHelpers:
    def test_render_table_alignment(self):
        out = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 7

    def test_render_table_prints_each_column_in_one_style(self):
        """A column with a float gives every number in it the decimals of
        its most precise float; other columns print as they are."""
        rows = [[2.0, 1.0, 6.25, 0.4, 1_965.2, True, "ok"],
                [20.0, 1.0, 25, 0.04, 583.61, False, "ok"],
                [90.0, 1.0, 100, 0.01, float("nan"), True, "-"]]
        out = render_table("T", list("abcdefg"), rows).splitlines()
        cells = [line.split() for line in out[4:7]]
        assert [c[0] for c in cells] == ["2.0", "20.0", "90.0"]
        assert [c[1] for c in cells] == ["1.0", "1.0", "1.0"]
        assert [c[2] for c in cells] == ["6.25", "25.00", "100.00"]
        assert [c[3] for c in cells] == ["0.40", "0.04", "0.01"]
        assert [c[4] for c in cells] == ["1,965.2", "583.6", "nan"]
        assert [c[5] for c in cells] == ["True", "False", "True"]
        assert [c[6] for c in cells] == ["ok", "ok", "-"]
        assert render_table("T", ["n"], [[3], [40]]).splitlines()[4:6] == ["3", "40"]

    def test_render_series(self):
        out = render_series("S", "x", [1, 2], {"y1": [10, 20], "y2": [3, 4]})
        assert "y1" in out and "y2" in out and "20" in out

    def test_shape_check_pass_fail(self):
        check = ShapeCheck("exp")
        check.expect("good", True)
        assert check.all_passed
        check.expect("bad", False, "details here")
        assert not check.all_passed
        rendered = check.render()
        assert "[PASS] good" in rendered
        assert "[FAIL] bad" in rendered
        with pytest.raises(AssertionError):
            check.print_and_assert()

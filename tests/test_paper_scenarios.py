"""Quick-size smokes of the scenario families only the paper suite runs
(``benchmarks/bench_*``, CI's ``paper`` job): each runs one small point
through the registry, as a sweep would, and checks its payload's shape
and direction — not the paper's numbers, which the benches check at full
size."""

import json

import numpy as np
import pytest

from repro.exp import ExperimentSpec, run_spec
from repro.exp.__main__ import main as exp_main
from repro.exp.runner import default_sweep_root
from repro.exp.spec import _jsonify


def payload(scenario, **params):
    return run_spec(ExperimentSpec(scenario, params))["payload"]


def check_migration(report, memory_mb):
    assert report["rounds"] >= 1
    assert 0 < report["downtime_s"] < report["total_s"]
    assert report["bytes"] >= memory_mb * 2**20


class TestWanVm:
    """Tables III-V and Fig 10: a VM on the Table I sites, migrated."""

    def test_migration_alone(self):
        check_migration(payload("wan_vm", memory_mb=4)["migration"], 4)

    def test_ab_connect_time_drops_once_the_vm_is_near(self):
        out = payload("wan_vm", memory_mb=4, app="ab", clients=["hku1"], requests=2)
        before, after = out["before"]["hku1"], out["after"]["hku1"]
        assert len(before) == len(after) == 3  # min, mean, max
        assert max(after) < min(before)

    def test_timeline_rtt_drops_across_the_migration(self):
        out = payload("wan_vm", memory_mb=4, app="timeline", clients=["hku1"],
                      duration=12.0, migrate_at=3.0)
        assert out["rtt_after"] < out["rtt_before"]
        assert out["ab_before"] > 0 and out["ab_after"] > out["ab_before"]
        assert out["lost_in_window"] == out["lost"]


class TestMigrationTimeline:
    """Fig 9 and the migration ablation: one VM over LAN, WAVNet, IPOP."""

    def test_report_without_a_stream(self):
        check_migration(payload("migration_timeline", stack="lan")["migration"], 64)

    @pytest.mark.parametrize("stack", ["lan", "wavnet", "ipop"])
    def test_stream_is_polled_while_the_vm_moves(self, stack):
        out = payload("migration_timeline", stack=stack, stream_s=1.0)
        assert out["times"] == pytest.approx([0.5, 1.0], abs=0.01)
        assert all(rate > 10 for rate in out["rates_mbps"])
        assert out["migration_s"] > 0


def test_relayed_ipop_pair_relays_every_packet():
    out = payload("stack_app", stack="ipop-relayed", probes=3)
    assert out["relayed"] == 3 * 2 * 2  # three pings, both ways, two relays each
    assert out["rtt_ms"] > 2 * 50.0


def test_planetlab_grouping_beats_random():
    out = payload("planetlab_grouping")
    assert out["pairs_ms"]["count"] == 200 * 199 // 2
    (problem,) = out["problems"]
    assert problem["ls"]["avg_s"] < problem["random"]["avg_s"]


def test_planetlab_nas_rows():
    rows = payload("planetlab_nas")["rows"]
    assert [(case, hosts) for case, hosts, _r, _l in rows] == [
        (case, n) for n in (4, 8) for case in ("EP(A)", "EP(B)", "FT(A)", "FT(B)")]
    for case, _hosts, random_s, locality_s in rows:
        assert 0 < locality_s <= random_s, case


@pytest.mark.parametrize("period, alive", [(5.0, True), (90.0, False)])
def test_wavnet_keepalive_against_a_60s_nat(period, alive):
    out = payload("wavnet_keepalive", pulse_interval=period)
    assert out["usable"] is alive and out["alive"] is alive
    # A 2-byte pulse per period while the tunnel lives; none once it died.
    assert 0 < out["overhead_bps"] <= 2 / period
    assert (out["overhead_bps"] == pytest.approx(2 / period)) is alive


def test_netperf_cluster_full_mesh():
    out = payload("netperf_cluster", n_hosts=3, sample_peers=2, duration=1.0, settle=1.0)
    assert out["connections"] == 3
    assert len(out["rates_mbps"]) == 2 and out["avg_mbps"] > 90


def test_ipop_traversal_cone_pair_is_direct():
    out = payload("ipop_traversal")
    assert (out["nat_a"], out["nat_b"], out["direct"]) == (
        "port-restricted", "port-restricted", True)


def test_fairness_parking_lot_long_flow_below_max_min():
    out = payload("fairness_parking_lot", n_hops=2, duration=5.0)
    assert len(out["per_flow_mbps"]) == 3
    assert out["long_flow_mbps"] == out["per_flow_mbps"][0]
    assert out["long_vs_maxmin"] < 1.0 and 0 < out["jain"] <= 1.0


def test_fairness_mix_mice_complete_beside_an_elephant():
    out = payload("fairness_mix", n_elephants=1, duration=5.0)
    assert out["mice_done"] >= 2 and out["mice_failed"] == 0
    assert out["mice_fct_ms_mean"] <= out["mice_fct_ms_p95"]
    assert out["elephant_mbps"][0] > 0


class TestExpCommandLine:
    def test_list_names_every_sweep_with_its_size(self, capsys):
        assert exp_main(["list"]) == 0
        lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
        assert lines["fig07"][1:4] == ["15", "points", "stack_app"]
        assert "smoke" in lines and "table5" in lines

    def test_default_sweep_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_DIR", str(tmp_path))
        assert default_sweep_root() == tmp_path
        monkeypatch.delenv("REPRO_SWEEP_DIR")
        assert default_sweep_root().parts[-3:] == ("benchmarks", "out", "sweeps")

    def test_numpy_scalars_serialize_as_python_numbers(self):
        assert _jsonify(np.float64(1.5)) == 1.5 and type(_jsonify(np.int64(3))) is int
        assert json.loads(json.dumps({"x": np.float32(0.5)}, default=_jsonify)) == {"x": 0.5}
        with pytest.raises(TypeError):
            _jsonify(object())

"""Tests for the experiment plane (repro.exp): specs, sweeps, the
pooled runner's determinism, and resume-from-cache."""

import inspect
import json
import os
import subprocess
import sys
from time import perf_counter

import pytest

from repro.exp import (
    ExperimentSpec,
    Sweep,
    SweepError,
    SweepRunner,
    aggregate,
    envelope_bytes,
    get_sweep,
    registry,
    run_spec,
    scenario_names,
    sweep_names,
)
from repro.exp import runner as runner_module
from repro.exp.__main__ import main as exp_main
from repro.exp.runner import PointResult, run_sweeps


def tiny_ping_sweep(name="tiny", rtts=(20.0, 50.0, 80.0, 120.0)):
    """Four cheap physical-stack ping points (~10 ms each)."""
    return (Sweep(name, "stack_ping",
                  base_params={"stack": "physical", "probes": 4}, seed=1)
            .add_axis("rtt_ms", list(rtts)))


def _worker_exit(seed=0, code=0):
    """A scenario whose process dies mid-point when ``code`` is set."""
    if code:
        os._exit(code)
    return {"code": code}


registry.register("worker_exit", _worker_exit)


def _numpy_payload(seed=0):
    """A payload of numpy values of every shape a scenario may return."""
    import numpy as np

    return {"scalar": np.float64(1.5), "zero_d": np.array(7), "one": np.array([2]),
            "matrix": np.arange(4).reshape(2, 2)}


registry.register("numpy_payload", _numpy_payload)


class TestRegistry:
    def test_scenarios_registered_by_import(self):
        names = scenario_names()
        for expected in ("churn_recovery", "netperf_cluster",
                         "planetlab_grouping", "stack_ping", "wavnet_mesh"):
            assert expected in names

    def test_every_catalog_sweep_resolves(self):
        """Without simulating: each catalog sweep's scenario is registered,
        its base params and axes are parameters of the scenario function,
        and each spec survives a JSON round trip unchanged."""
        for name in sweep_names():
            sweep = get_sweep(name)
            params = inspect.signature(registry.get(sweep.scenario)).parameters
            for key in [*sweep.base_params, *sweep.axis_names()]:
                assert key in params, f"{name}: {sweep.scenario} takes no {key!r}"
            for spec in sweep.specs():
                canonical = spec.canonical()
                assert json.loads(json.dumps(canonical)) == canonical, name

    def test_duplicate_registration_rejected(self):
        fn = registry.get("stack_ping")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("stack_ping", lambda seed=0: {})
        # Re-registering the same function (module reload) is a no-op.
        registry.register("stack_ping", fn)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            ExperimentSpec("no_such_scenario").resolve()


class TestSpec:
    def test_seed_kept_out_of_params(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec("stack_ping", params={"seed": 3})

    def test_canonical_roundtrip_and_digest_stability(self):
        spec = ExperimentSpec("stack_ping", params={"rtt_ms": 30.0}, seed=5,
                              metrics=["a.*"], traces=["b"])
        again = ExperimentSpec.from_dict(json.loads(
            json.dumps(spec.canonical())))
        assert again == spec
        assert again.digest() == spec.digest()
        assert spec.digest() != ExperimentSpec(
            "stack_ping", params={"rtt_ms": 31.0}, seed=5).digest()

    def test_run_spec_envelope_shape(self):
        spec = ExperimentSpec("stack_ping",
                              params={"stack": "physical", "probes": 4})
        env = run_spec(spec)
        assert env["spec"] == spec.canonical()
        assert env["payload"]["lost"] == 0
        assert env["obs"]["events_dispatched"] > 0
        assert env["wall_seconds"] >= 0
        # Canonical bytes ignore wall time but pin everything else.
        other = run_spec(spec)
        assert envelope_bytes(env) == envelope_bytes(other)

    def test_numpy_payload_values_become_scalars_and_lists(self):
        payload = run_spec(ExperimentSpec("numpy_payload"))["payload"]
        assert payload == {"scalar": 1.5, "zero_d": 7, "one": [2],
                           "matrix": [[0, 1], [2, 3]]}

    def test_metric_selection_exports_only_matches(self):
        spec = ExperimentSpec("stack_ping",
                              params={"stack": "physical", "probes": 4},
                              metrics=["*.ping.rtt"])
        env = run_spec(spec)
        assert len(env["metrics"]) == 1
        (path, exported), = env["metrics"].items()
        assert path.endswith("ping.rtt")
        assert exported["kind"] == "series"


class TestSweep:
    def test_cartesian_axes_and_order(self):
        sweep = (Sweep("s", "stack_ping")
                 .add_axis("a", [1, 2])
                 .add_axis("b", ["x", "y", "z"]))
        pts = sweep.points()
        assert len(sweep) == len(pts) == 6
        # Later axes vary fastest.
        assert [p.coords for p in pts[:3]] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 1, "b": "z"}]

    def test_zip_axes_lockstep(self):
        sweep = Sweep("s", "stack_ping").zip_axes(n=[8, 16], seed=[58, 66])
        pts = sweep.points()
        assert [p.coords for p in pts] == [
            {"n": 8, "seed": 58}, {"n": 16, "seed": 66}]
        assert [p.spec.seed for p in pts] == [58, 66]
        assert all("seed" not in p.spec.params for p in pts)

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Sweep("s", "stack_ping").zip_axes(a=[1, 2], b=[1, 2, 3])

    def test_duplicate_axis_rejected(self):
        sweep = Sweep("s", "stack_ping").add_axis("a", [1])
        with pytest.raises(ValueError, match="duplicate"):
            sweep.add_axis("a", [2])

    def test_catalog_sweeps_enumerable(self):
        assert "smoke" in sweep_names()
        assert len(get_sweep("smoke")) == 4


class TestRunner:
    def test_serial_run_and_full_cache_resume(self, tmp_path):
        first = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert first.executed_indices == [0, 1, 2, 3]
        again = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert again.cached_indices == [0, 1, 2, 3]
        assert again.result_bytes() == first.result_bytes()

    def test_resume_reruns_only_missing_point(self, tmp_path):
        sweep = tiny_ping_sweep()
        SweepRunner(sweep, out_dir=tmp_path).run()
        victim = sweep.points()[2]
        (tmp_path / f"{victim.key}.json").unlink()
        result = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert result.executed_indices == [2]
        assert result.cached_indices == [0, 1, 3]

    def test_stale_artifact_spec_mismatch_reexecutes(self, tmp_path):
        sweep = tiny_ping_sweep()
        SweepRunner(sweep, out_dir=tmp_path).run()
        point = sweep.points()[1]
        path = tmp_path / f"{point.key}.json"
        stale = json.loads(path.read_text())
        stale["spec"]["seed"] = 999
        path.write_text(json.dumps(stale))
        result = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert 1 in result.executed_indices

    def test_force_ignores_cache(self, tmp_path):
        SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        result = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path,
                             force=True).run()
        assert result.cached_indices == []

    def test_failure_collected_per_point(self, tmp_path):
        sweep = (Sweep("bad", "stack_ping", base_params={"probes": 4})
                 .add_axis("stack", ["physical", "no-such-stack"]))
        with pytest.raises(SweepError) as exc_info:
            SweepRunner(sweep, out_dir=tmp_path).run()
        assert list(exc_info.value.failures) == [1]

    def test_point_cached_under_other_source_reexecutes(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(runner_module, "_source_digest", lambda: "old")
        SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        again = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert again.cached_indices == [0, 1, 2, 3]
        monkeypatch.setattr(runner_module, "_source_digest", lambda: "new")
        result = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()
        assert result.executed_indices == [0, 1, 2, 3]

    def test_source_digest_is_stable_and_not_taken_at_import(self):
        assert runner_module._source_digest() == runner_module._source_digest()
        probe = ("import sys, repro; "
                 "from repro.exp import runner; "
                 "assert 'concurrent.futures' not in sys.modules; "
                 "assert runner._source_digest.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_manifest_written(self, tmp_path):
        sweep = tiny_ping_sweep()
        SweepRunner(sweep, out_dir=tmp_path).run()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "stack_ping"
        assert [p["index"] for p in manifest["points"]] == [0, 1, 2, 3]


class TestShardedDeterminism:
    def test_sharded_ping_matches_serial(self, tmp_path):
        serial = SweepRunner(tiny_ping_sweep(), workers=1,
                             out_dir=tmp_path / "s").run()
        sharded = SweepRunner(tiny_ping_sweep(), workers=3,
                              out_dir=tmp_path / "p").run()
        assert serial.result_bytes() == sharded.result_bytes()

    def test_churn_eight_seed_golden(self, tmp_path):
        """The determinism golden: an 8-seed churn sweep (reduced size)
        must produce byte-identical per-seed envelopes whether run
        serially or sharded over 2 workers."""
        def sweep():
            return (Sweep("churn-golden", "churn_recovery",
                          base_params={"n_hosts": 3, "horizon": 60.0,
                                       "ping": False},
                          metrics=["*.driver.repair.seconds"])
                    .add_axis("seed", [7, 11, 23, 42, 101, 131, 151, 173]))

        serial = SweepRunner(sweep(), workers=1,
                             out_dir=tmp_path / "serial").run()
        sharded = SweepRunner(sweep(), workers=2,
                              out_dir=tmp_path / "sharded").run()
        assert len(serial) == len(sharded) == 8
        for a, b in zip(serial, sharded):
            assert a.envelope_bytes() == b.envelope_bytes(), \
                f"seed {a.coords['seed']} diverged between serial and sharded"

    def test_dead_worker_fails_its_point_instead_of_hanging(self, tmp_path):
        sweep = Sweep("dies", "worker_exit").add_axis("code", [0, 3])
        t0 = perf_counter()
        with pytest.raises(SweepError) as exc_info:
            SweepRunner(sweep, workers=2, out_dir=tmp_path).run()
        assert perf_counter() - t0 < 20
        assert "BrokenProcessPool" in exc_info.value.failures[1]
        assert "point 1: " in str(exc_info.value)

    def test_sweeps_share_one_pool_and_keep_failures_apart(self, tmp_path):
        bad = (Sweep("bad", "stack_ping", base_params={"probes": 4})
               .add_axis("stack", ["physical", "no-such-stack"]))
        good, failed = run_sweeps([
            SweepRunner(tiny_ping_sweep(), workers=2, out_dir=tmp_path / "g"),
            SweepRunner(bad, workers=2, out_dir=tmp_path / "b")])
        assert list(failed.failures) == [1]
        assert good.executed_indices == [0, 1, 2, 3]
        serial = SweepRunner(tiny_ping_sweep(), out_dir=tmp_path / "s").run()
        assert good.result_bytes() == serial.result_bytes()


class TestCli:
    def test_run_resumes_and_rejects_unknown_names(self, tmp_path, capsys):
        argv = ["run", "smoke", "--workers", "2", "--out", str(tmp_path)]
        assert exp_main(argv) == 0
        assert "smoke done: 4 executed, 0 cached" in capsys.readouterr().out
        assert exp_main(argv) == 0
        assert "smoke done: 0 executed, 4 cached" in capsys.readouterr().out
        assert exp_main(["run", "smoke", "no_such_sweep"]) == 2


class TestAggregate:
    def _result(self, tmp_path):
        return SweepRunner(tiny_ping_sweep(), out_dir=tmp_path).run()

    def test_column_and_series(self, tmp_path):
        result = self._result(tmp_path)
        means = aggregate.column(result, "mean_rtt_ms")
        assert len(means) == 4
        xs, ys = aggregate.series(result, "rtt_ms", "mean_rtt_ms")
        assert xs == sorted(xs)
        assert ys == sorted(ys)  # more RTT, slower pings
        for rtt, mean in zip(xs, ys):
            assert mean == pytest.approx(rtt, rel=0.05)

    def test_distribution_and_merge(self, tmp_path):
        assert aggregate.distribution([]) == {"count": 0}
        dist = aggregate.distribution([1.0, 2.0, 3.0])
        assert dist["count"] == 3
        assert dist["mean_s"] == 2.0
        assert dist["max_s"] == 3.0
        points = [PointResult(i, {}, {"payload": {"repair_seconds": samples}}, cached=False)
                  for i, samples in enumerate([[1.0], None, [2.0, 3.0]])]
        assert aggregate.merge_samples(points, "repair_seconds") == [1.0, 2.0, 3.0]

    def test_payloads_in_point_order(self, tmp_path):
        result = self._result(tmp_path)
        assert result.payloads == [p.payload for p in result.points]
        assert [p["stack"] for p in result.payloads] == ["physical"] * 4

    def test_table_rows_pivot(self, tmp_path):
        result = self._result(tmp_path)
        rows = aggregate.table_rows(result, row_axis="rtt_ms",
                                    col_axis="rtt_ms", key="mean_rtt_ms")
        assert len(rows) == 4
        assert rows[0][0] == 20.0

"""The perf benchmark: seven workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is one JSON
        object {correct, attempted, failed, metrics} (BENCHMARK.json's
        end_to_end metrics with --trace 0, its per_layer metrics with 1)
    python3 benchmarks/perf/run.py [--seed 7] [--seconds 10] [--trace] [--out F]
        the whole set, one fresh subprocess per workload, never two at once
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py --selftest

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ITERATIONS = 3  # five samples support no tail percentile either; see README
IMPORT_SAMPLES = 5
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro; from repro.exp.spec import ensure_scenarios_loaded; "
    "ensure_scenarios_loaded(); print(time.perf_counter() - t)")

# Simulated results that belong to some workloads only. BENCHMARK.json wants
# every end-to-end metric from every workload, so these are per-layer there
# (0 where a workload has none) and printed under `sim` by their own name.
SIM_LAYER = {
    "sim_goodput_mbps": "apps.sim_goodput_mbps",
    "sim_fct_p95_s": "apps.sim_fct_p95_s",
    "sim_connect_p95_s": "core.connection.sim_connect_p95_s",
    "sim_repair_p50_s": "core.driver.sim_repair_p50_s",
    "sim_register_ops_per_s": "overlay.rendezvous.sim_register_ops_per_s",
}


@functools.cache
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_seconds() -> float:
    """Host seconds a fresh interpreter needs to import repro and register
    every scenario — the part of set-up every run of the program pays."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                         check=True, capture_output=True, text=True)
    return float(out.stdout)


def digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=float).encode()
    return hashlib.sha256(blob).hexdigest()


def stat(samples: list, unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit,
            "min": min(samples), "max": max(samples), "n": len(samples)}


class Tally:
    """Output checks of a run, summed over its iterations."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list = []
        self.digests: set = set()

    def add(self, it) -> None:
        self.attempted += it.attempted
        self.failed += it.failed
        self.problems += it.problems
        self.digests.add(digest(it.payload))


def measure(name: str, seed: int, seconds: float, quick: bool, trace: bool) -> dict:
    """Run one workload in this process and return its record."""
    units = {m["name"]: m["unit"]
             for m in spec()["per_layer" if trace else "end_to_end"]}
    imports = [] if trace else [import_seconds()
                                for _ in range(1 if quick else IMPORT_SAMPLES)]

    sys.path[:0] = [str(SRC), str(HERE)]
    import layers
    from workloads import WORKLOADS

    # A deprecated keyword alias reaching repro from here is an error. The
    # one exception is src's own: the driver's repair loop still passes
    # connect_by_name(allow_relay=...) to itself (ROADMAP item 3a).
    warnings.simplefilter("error", DeprecationWarning)
    warnings.filterwarnings("ignore", r"connect_by_name\(allow_relay=",
                            DeprecationWarning)

    run = WORKLOADS[name]
    tally, walls, builds = Tally(), [], []
    started = time.perf_counter()
    while True:
        it = None  # drop the previous simulator before building the next
        gc.collect()
        it = run(seed, quick)
        tally.add(it)
        walls.append(it.wall_s)
        builds.append(it.build_s)
        if quick or trace:
            break
        if len(walls) >= MIN_ITERATIONS and time.perf_counter() - started >= seconds:
            break

    sim_metrics = it.sim_metrics
    if trace:
        metrics = layers.counters(it)
        metrics.update({layer: sim_metrics.get(sim, 0.0)
                        for sim, layer in SIM_LAYER.items()})
        it = None
        gc.collect()
        it, stats = layers.profile(lambda: run(seed, quick))
        tally.add(it)
        folded = layers.fold(stats)
        for layer, row in folded["layers"].items():
            metrics[f"{layer}.calls"] = row["calls"]
            metrics[f"{layer}.self_s"] = row["self_s"]
        metrics["trace.overhead_x"] = it.wall_s / walls[0]
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace_{name}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "quick": quick,
                       "untraced_wall_s": walls[0], "traced_wall_s": it.wall_s,
                       **folded}, fh, indent=1)
    else:
        imp, bld = stat(imports, "s"), stat(builds, "s")
        metrics = {
            "wall_s": stat(walls, "s"),
            "setup_s": {"value": imp["value"] + bld["value"], "unit": "s",
                        "min": imp["min"] + bld["min"],
                        "max": imp["max"] + bld["max"], "n": imp["n"]},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if len(tally.digests) != 1:
        tally.problems.append(f"{len(tally.digests)} different sim_digests in one run")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics measured and BENCHMARK.json disagree: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "iterations": len(walls),
        "sim_digest": min(tally.digests), "sim": sim_metrics,
        "metrics": {k: v if isinstance(v, dict) else {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}


def report(name: str, record: dict) -> None:
    print(f"== {name}: {record['iterations']} iteration(s), "
          f"sim_digest {record['sim_digest'][:16]}")
    for key, m in sorted(record["metrics"].items()):
        spread = f"  [{m['min']:.6g} .. {m['max']:.6g}, n={m['n']}]" if "n" in m else ""
        print(f"{key:<48} {m['value']:>14.6g} {m['unit']}{spread}")
    for key, value in sorted(record["sim"].items()):
        print(f"{key:<48} {value:>14.6g}  (simulated)")
    print(f"{'ops_failed_frac':<48} {record['failed'] / record['attempted']:>14.6g}  "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


# -- run context ----------------------------------------------------------

def context() -> dict:
    """Where the numbers came from, so two files are never compared blind."""
    import numpy as np

    def best(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    def py_loop():
        acc = 0
        for i in range(3_000_000):
            acc += i & 7
        return acc

    # Sorting, which the columnar control plane does, and not a matmul: a
    # threaded BLAS made a 256x256 product read 6 ms or 160 ms on this box.
    x = np.random.default_rng(0).random(1_000_000)
    py_s, np_s = best(py_loop), best(lambda: np.cumsum(x[np.argsort(x, kind="stable")]))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"commit": commit or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu or platform.processor() or "unknown",
            "calibration": {"py_loop_s": py_s, "numpy_sort_s": np_s},
            # fixed work over the time it took here: higher is a faster host
            "host_score": 1.0 / (py_s + np_s)}


def write(path: str, args, ctx: dict, records: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"context": ctx, "seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "workloads": records}, fh, indent=1)


# -- the whole set ----------------------------------------------------------

def run_set(args) -> dict:
    """Every workload, each in its own fresh interpreter, one at a time."""
    OUT.mkdir(exist_ok=True)
    records, ctx, ok = {}, None, True
    for name in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1) if args.trace else (0,):
            part = OUT / f"_{name}.{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            done = subprocess.run(cmd + (["--quick"] if args.quick else []))
            ok &= done.returncode == 0
            with open(part) as fh:
                data = json.load(fh)
            part.unlink()
            record = data["workloads"][name]
            if trace:
                records[name]["per_layer"] = record["metrics"]
                records[name]["correct"] &= record["correct"]
            else:
                records[name] = record
            ctx = ctx or data["context"]
    if args.out:
        write(args.out, args, ctx, records)
    if not ok:
        raise SystemExit("a workload failed its checks")
    return {"context": ctx, "workloads": records}


# -- compare ------------------------------------------------------------------

def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """`worse` when B's median is worse than A's by more than the bound;
    `unresolved` when it is, but a spread is wider than the bound and the
    two ranges overlap."""
    base, new = a["value"], b["value"]
    change = (new - base) / abs(base) if base else (0.0 if new == base else float("inf"))
    if (change if better == "lower" else -change) <= bound:
        return "ok"
    lo_a, hi_a = a.get("min", base), a.get("max", base)
    lo_b, hi_b = b.get("min", new), b.get("max", new)
    wide = max(hi_a - lo_a, hi_b - lo_b) > bound * abs(base)
    return "unresolved" if wide and lo_a <= hi_b and lo_b <= hi_a else "worse"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, data in (("A", a), ("B", b)):
        c = data["context"]
        print(f"{side}: commit {c['commit'][:12]} host_score {c['host_score']:.3f} "
              f"nproc {c['nproc']} python {c['python']} cpu {c['cpu']}")
    declared = spec()
    sim_better = {m["name"]: m["better"] for m in declared["per_layer"]}
    worse = 0
    print(f"{'workload':<16}{'metric':<24}{'A median [min..max]':<36}"
          f"{'B median [min..max]':<36}{'bound':>6}  verdict")

    def cell(m):
        return f"{m['value']:.6g} [{m.get('min', m['value']):.6g}..{m.get('max', m['value']):.6g}]"

    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        rows = [(m["name"], ra["metrics"][m["name"]], rb["metrics"][m["name"]],
                 m["better"], m["bound"]) for m in declared["end_to_end"]]
        # simulated results repeat exactly for a seed: any worsening counts
        rows += [(k, {"value": ra["sim"][k]}, {"value": rb["sim"][k]},
                  sim_better[SIM_LAYER[k]], 0.0)
                 for k in ra["sim"] if k in rb["sim"]]
        rows.append(("ops_failed_frac", {"value": ra["failed"] / ra["attempted"]},
                     {"value": rb["failed"] / rb["attempted"]}, "lower", 0.0))
        for metric, ma, mb, better, bound in rows:
            v = verdict(ma, mb, better, bound)
            worse += v == "worse"
            print(f"{name:<16}{metric:<24}{cell(ma):<36}{cell(mb):<36}{bound:>6.2f}  {v}")
        same = ra["sim_digest"] == rb["sim_digest"]
        print(f"{name:<16}{'sim_digest':<24}{ra['sim_digest'][:16]:<36}"
              f"{rb['sim_digest'][:16]:<36}{'':>6}  {'same' if same else 'DIFFERS'}")
    return 1 if worse else 0


# -- selftest -------------------------------------------------------------------

def selftest() -> None:
    """Run `--quick --trace` and check the shape of what it wrote."""
    out = OUT / "selftest.json"
    args = argparse.Namespace(seed=7, seconds=1, quick=True, trace=1, out=str(out))
    result = run_set(args)
    declared = spec()
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    e2e = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    workloads = [w["name"] for w in declared["workloads"]]
    assert len(e2e) <= 16 and len(per_layer) <= 128, (len(e2e), len(per_layer))
    assert all(name_ok.match(n) for n in e2e + per_layer + workloads)
    assert len(set(e2e + per_layer)) == len(e2e + per_layer), "metric name used twice"
    assert "setup_s" in e2e and all(0 <= m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert sorted(result["workloads"]) == sorted(workloads)
    for key in ("commit", "nproc", "python", "numpy", "cpu", "host_score"):
        assert result["context"][key], key
    for name, record in result["workloads"].items():
        assert record["correct"] and record["failed"] == 0, (name, record["problems"])
        assert sorted(record["metrics"]) == sorted(e2e), name
        assert sorted(record["per_layer"]) == sorted(per_layer), name
        assert all(m["value"] > 0 for m in record["metrics"].values()), name
        assert record["sim"], name
        with open(OUT / f"trace_{name}.json") as fh:
            trace = json.load(fh)
        share = sum(row["share"] for row in trace["layers"].values())
        assert abs(share - 1.0) <= 1e-6, (name, share)
        assert len(trace["top_functions"]) == 20, name
    print(f"selftest ok: {len(workloads)} workloads, {len(e2e)} end-to-end and "
          f"{len(per_layer)} per-layer metrics")


def main(argv: list) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                        help="keep iterating until this much time is measured "
                             f"(at least {MIN_ITERATIONS} iterations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="per-layer metrics from a cProfile pass")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 8, one iteration: a smoke run, not a measurement")
    parser.add_argument("--out", help="write the full records as JSON here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        selftest()
        return 0
    if args.workload is None:
        run_set(args)
        return 0
    record = measure(args.workload, args.seed, args.seconds, args.quick,
                     bool(args.trace))
    report(args.workload, record)
    if args.out:
        write(args.out, args, context(), {args.workload: record})
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Control-plane scalability: registrations at 10^4-10^6 endpoints.

A fig08-style curve for the struct-of-arrays control plane: each rung
runs the ``registration_storm`` scenario (fill the HostTable through
batched fleet registration, regional outage, mass reconnect with
admission control, hot-zone splitting, and punch probes through the
loaded brokering path) at one endpoint count and reports

* ``fill_ops_per_sec`` / ``reconnect_ops_per_sec`` — control-plane
  registration throughput (simulated time);
* ``punch_p50_s`` / ``punch_p95_s`` — punch-coordination latency for
  fully built hosts connecting while the storm runs;
* ``bytes_per_endpoint`` — steady-state control-plane memory per idle
  endpoint (table columns + name index + CAN handle stores);
* ``rss_per_endpoint`` — measured peak-RSS growth per endpoint (each
  rung runs in its own subprocess so the deltas don't pollute each
  other);
* admission shedding and CAN split counters.

Results land in ``BENCH_scale.json`` at the repo root. ``--quick``
runs only the 10^4 rung (the CI ``scale-smoke`` job); ``--check``
enforces ops/sec floors and the <= 2 KB/endpoint steady-state ceiling.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"

RUNGS = (10_000, 100_000, 1_000_000)
QUICK_RUNGS = (10_000,)
SEED = 7

MIN_FILL_OPS = 1500.0       # ops/sec floor at the quick rung
MAX_BYTES_PER_ENDPOINT = 2048.0  # steady-state ceiling (ISSUE acceptance)


def storm_params(n: int) -> dict:
    """One parameterization per rung: admission scales with the storm
    so the front of the wave is shed but the bucket never dominates,
    and the hot-zone limit scales so splitting stays load-driven."""
    return {
        "seed": SEED,
        "n_endpoints": n,
        "n_rendezvous": 4,
        "n_regions": 8,
        "batch": 512,
        "admission_rate": n / 4,
        "admission_burst": n / 8,
        "hot_zone_limit": max(1024, n // 32),
    }


def run_rung(n: int) -> dict:
    """Run one rung in-process and fold in peak-RSS accounting."""
    import resource

    from repro.scenarios.storm import registration_storm

    rss_scale = 1024  # ru_maxrss is KiB on Linux
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * rss_scale
    _sim, payload = registration_storm(**storm_params(n))
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * rss_scale
    lat = sorted(payload.pop("punch_latency_s"))

    def pct(p: float) -> float | None:
        return lat[min(int(p * len(lat)), len(lat) - 1)] if lat else None

    payload.update({
        "punch_samples": len(lat),
        "punch_p50_s": pct(0.50),
        "punch_p95_s": pct(0.95),
        "rss_peak_bytes": rss_peak,
        "rss_delta_bytes": max(rss_peak - rss_before, 0),
        "rss_per_endpoint": max(rss_peak - rss_before, 0) / n,
    })
    return payload


def run_all(rungs=RUNGS) -> dict:
    """One subprocess per rung so each peak-RSS measurement starts from
    a fresh interpreter."""
    curve = []
    for n in rungs:
        proc = subprocess.run(
            [sys.executable, __file__, "--rung", str(n)],
            capture_output=True, text=True, check=True)
        curve.append(json.loads(proc.stdout))
    return {"seed": SEED, "rungs": curve}


def write_json(results: dict) -> None:
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def render(results: dict) -> str:
    lines = ["Control-plane scale (registration storm, 4-server fleet, "
             "8 regions)"]
    lines.append(f"  {'endpoints':>10} {'fill ops/s':>11} {'reconn ops/s':>13} "
                 f"{'punch p95':>10} {'B/ep':>7} {'RSS B/ep':>9} "
                 f"{'rejects':>8} {'splits':>7}")
    for r in results["rungs"]:
        p95 = r["punch_p95_s"]
        lines.append(
            f"  {r['n_endpoints']:>10,} {r['fill_ops_per_sec']:>11,.0f} "
            f"{r['reconnect_ops_per_sec']:>13,.0f} "
            f"{(f'{p95 * 1e3:.0f}ms' if p95 is not None else '-'):>10} "
            f"{r['bytes_per_endpoint']:>7.0f} {r['rss_per_endpoint']:>9.0f} "
            f"{r['admission_rejected']:>8,} {r['can_splits']:>7}")
    return "\n".join(lines)


def check(results: dict) -> bool:
    ok = True
    for r in results["rungs"]:
        n = r["n_endpoints"]
        if r["fill_ops_per_sec"] < MIN_FILL_OPS:
            print(f"FAIL: {n} endpoints: fill {r['fill_ops_per_sec']:.0f} "
                  f"ops/s below floor {MIN_FILL_OPS:.0f}")
            ok = False
        if r["bytes_per_endpoint"] > MAX_BYTES_PER_ENDPOINT:
            print(f"FAIL: {n} endpoints: {r['bytes_per_endpoint']:.0f} "
                  f"steady-state B/endpoint above ceiling "
                  f"{MAX_BYTES_PER_ENDPOINT:.0f}")
            ok = False
        if r["reconnected"] != r["outage_endpoints"]:
            print(f"FAIL: {n} endpoints: reconnect storm recovered "
                  f"{r['reconnected']}/{r['outage_endpoints']}")
            ok = False
        if r["punch_samples"] == 0:
            print(f"FAIL: {n} endpoints: no punch-coordination samples")
            ok = False
    if ok:
        top = results["rungs"][-1]
        print(f"ok: {top['n_endpoints']:,} endpoints at "
              f"{top['fill_ops_per_sec']:,.0f} registrations/s, "
              f"{top['bytes_per_endpoint']:.0f} B/endpoint steady state")
    return ok


def main(argv: list[str]) -> int:
    if "--rung" in argv:
        n = int(argv[argv.index("--rung") + 1])
        print(json.dumps(run_rung(n)))
        return 0
    quick = "--quick" in argv
    results = run_all(QUICK_RUNGS if quick else RUNGS)
    if not quick:
        # Only the full curve lands in BENCH_scale.json; the smoke rung
        # must not overwrite it.
        write_json(results)
    print(render(results))
    if "--check" in argv:
        return 0 if check(results) else 1
    return 0


def test_scale_endpoints(run_once, emit):
    """Benchmark-suite entry point (quick rung only: the full curve is
    a run_all.sh / standalone target)."""
    results = run_once(run_all, QUICK_RUNGS)
    emit(render(results))
    assert check(results)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

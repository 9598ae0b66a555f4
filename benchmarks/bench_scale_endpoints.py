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
  rung runs in its own fresh interpreter so the deltas don't pollute
  each other);
* admission shedding and CAN split counters.

The ``scale`` case of ``benchmarks/gates.py``; quick runs only the 10^4
rung. The check enforces the ops/sec floor and the <= 300 B/endpoint
steady-state ceiling on every rung run.
"""

from __future__ import annotations

import multiprocessing

RUNGS = (10_000, 100_000, 1_000_000)
QUICK_RUNGS = (10_000,)
SEED = 7

MIN_FILL_OPS = 1500.0       # ops/sec floor at the quick rung
MAX_BYTES_PER_ENDPOINT = 300.0  # steady-state ceiling, every rung


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


def _peak_rss() -> int:
    """Peak resident bytes of this address space. Not ``ru_maxrss``: that
    one survives exec, so a spawned rung would start at the runner's peak."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:")) * 1024


def run_rung(n: int) -> dict:
    """Run one rung in-process and fold in peak-RSS accounting."""
    from repro.scenarios.storm import registration_storm

    rss_before = _peak_rss()
    _sim, payload = registration_storm(**storm_params(n))
    rss_peak = _peak_rss()
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


def run(quick: bool) -> dict:
    """One spawned process per rung so each peak-RSS measurement starts
    from a fresh interpreter."""
    spawn = multiprocessing.get_context("spawn")
    curve = []
    for n in QUICK_RUNGS if quick else RUNGS:
        with spawn.Pool(1) as pool:
            curve.append(pool.apply(run_rung, (n,)))
    return {"seed": SEED, "rungs": curve}


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


def check(results: dict) -> list[str]:
    failures = []
    for r in results["rungs"]:
        n = r["n_endpoints"]
        if r["fill_ops_per_sec"] < MIN_FILL_OPS:
            failures.append(f"{n} endpoints: fill {r['fill_ops_per_sec']:.0f} "
                            f"ops/s below floor {MIN_FILL_OPS:.0f}")
        if r["bytes_per_endpoint"] > MAX_BYTES_PER_ENDPOINT:
            failures.append(f"{n} endpoints: {r['bytes_per_endpoint']:.0f} "
                            f"steady-state B/endpoint above ceiling "
                            f"{MAX_BYTES_PER_ENDPOINT:.0f}")
        if r["reconnected"] != r["outage_endpoints"]:
            failures.append(f"{n} endpoints: reconnect storm recovered "
                            f"{r['reconnected']}/{r['outage_endpoints']}")
        if r["punch_samples"] == 0:
            failures.append(f"{n} endpoints: no punch-coordination samples")
    return failures

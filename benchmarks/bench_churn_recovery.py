"""Churn-recovery benchmark: how fast does the mesh heal itself?

Runs the scripted churn scenario (rendezvous-server kill + restore,
host-driver crash/restore, NAT reboot, access-link flap) over several
seeds and reports the distributions the failure plane exists to measure:

* ``repair_seconds``   — outage duration per repaired tunnel, from the
  liveness-declared death to the re-punched connection (the drivers'
  ``<h>.driver.repair.seconds`` histograms).
* ``failover_seconds`` — time for a driver to re-register with a backup
  rendezvous server after its primary dies
  (``<h>.driver.rvz.failover_seconds``).
* ``frames_lost``      — application frames dropped for lack of a usable
  tunnel during outages (``<h>.driver.frames.dropped_outage``).

Every run must end converged: all running hosts registered with a
running rendezvous server and every pair connected by a usable tunnel —
with nobody calling ``connect()`` after the mesh was first built.

The per-seed runs go through the experiment plane: a ``seed`` axis over
the registered ``churn_recovery`` scenario, executed by
:class:`repro.exp.SweepRunner` (``force=True`` so the benchmark always
measures real work).

The ``churn`` case of ``benchmarks/gates.py`` (one size): fails if any
seed ends unconverged or no repairs/failovers were exercised.
"""

from __future__ import annotations

from repro.exp import Sweep, SweepRunner, aggregate

SEEDS = (7, 11, 23, 42, 101)
HORIZON = 220.0  # sim-seconds past the established mesh


def run(quick: bool) -> dict:
    sweep = (Sweep("churn", "churn_recovery", base_params={"horizon": HORIZON})
             .add_axis("seed", list(SEEDS)))
    result = SweepRunner(sweep, force=True).run()
    runs = result.payloads
    repair = aggregate.merge_samples(result, "repair_seconds")
    failover = aggregate.merge_samples(result, "failover_seconds")
    return {
        "seeds": list(SEEDS),
        "repair_seconds": aggregate.distribution(repair),
        "failover_seconds": aggregate.distribution(failover),
        "frames_lost_total": sum(r["frames_lost"] for r in runs),
        "repairs_total": sum(r["repairs"] for r in runs),
        "failovers_total": sum(r["failovers"] for r in runs),
        "all_converged": all(r["converged"] for r in runs),
        "per_seed": [
            {k: v for k, v in r.items()
             if k not in ("repair_seconds", "failover_seconds")}
            for r in runs
        ],
    }


def render(results: dict) -> str:
    rep, fo = results["repair_seconds"], results["failover_seconds"]
    lines = ["Churn recovery (scripted rendezvous kill / host crash / "
             "NAT reboot / link flap)"]
    lines.append(f"  seeds: {results['seeds']}  "
                 f"converged: {results['all_converged']}")
    lines.append(f"  tunnel re-punch   n={rep.get('count', 0):<4} "
                 f"mean {rep.get('mean_s', '-')}s  p50 {rep.get('p50_s', '-')}s  "
                 f"p95 {rep.get('p95_s', '-')}s  max {rep.get('max_s', '-')}s")
    lines.append(f"  rvz failover      n={fo.get('count', 0):<4} "
                 f"mean {fo.get('mean_s', '-')}s  p50 {fo.get('p50_s', '-')}s  "
                 f"p95 {fo.get('p95_s', '-')}s  max {fo.get('max_s', '-')}s")
    lines.append(f"  frames lost during outages: "
                 f"{results['frames_lost_total']}")
    return "\n".join(lines)


def check(results: dict) -> list[str]:
    failures = []
    if not results["all_converged"]:
        failures.append("a seed ended without full mesh convergence")
    if results["repairs_total"] == 0:
        failures.append("no tunnel repairs were exercised")
    if results["failovers_total"] == 0:
        failures.append("no rendezvous failovers were exercised")
    return failures

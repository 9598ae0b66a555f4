"""NAT-traversal benchmark: direct-connect rate and repair latency.

Two families, both through the experiment plane (DESIGN.md §16):

* **Matrix** — every NAT×NAT cell (cone types plus sequential- and
  random-allocating symmetric NATs) punched by WAVNet with port
  prediction and by the IPOP baseline's simultaneous-hello bootstrap.
  Reports the direct-connect rate per system; the paper's boundary
  (every symmetric cell relays) is what prediction moves.
* **Migration** — an established pair whose NAT reboots, healed either
  by QUIC-style path migration (stable connection ID + path validation)
  or by the classic liveness-death → re-punch loop at identical
  detection/backoff knobs. Reports both repair-latency distributions.

Gates (the ``traversal`` case of ``benchmarks/gates.py``, one size):

* every WAVNet matrix cell is usable and lands direct exactly where
  prediction says it should (``expected_direct``), across all seeds;
* WAVNet's direct rate strictly exceeds IPOP's (which relays all
  symmetric cells);
* migration repair p95 < 2 s (vs ~32 s p95 for the churn bench's
  re-punch path) and beats the matched re-punch baseline's p95.
"""

from __future__ import annotations

from repro.exp import Sweep, SweepRunner, aggregate
from repro.scenarios.traversal import NAT_SPECS, expected_direct

MATRIX_SEEDS = (7, 42)
MIGRATION_SEEDS = (7, 11, 23, 42, 101)
MIGRATION_GATE_P95_S = 2.0


def matrix_sweep(scenario: str) -> Sweep:
    return (Sweep(f"traversal-{scenario}", scenario)
            .add_axis("nat_a", list(NAT_SPECS))
            .add_axis("nat_b", list(NAT_SPECS))
            .add_axis("seed", list(MATRIX_SEEDS)))


def migration_sweep() -> Sweep:
    return (Sweep("traversal-migration", "migration_repair")
            .add_axis("migration", [True, False])
            .add_axis("seed", list(MIGRATION_SEEDS)))


def _cells(payloads) -> dict:
    """(nat_a, nat_b) -> per-seed payload list."""
    cells: dict = {}
    for p in payloads:
        cells.setdefault((p["nat_a"], p["nat_b"]), []).append(p)
    return cells


def run(quick: bool) -> dict:
    wav = SweepRunner(matrix_sweep("traversal_pair"), force=True).run()
    ipop = SweepRunner(matrix_sweep("ipop_traversal"), force=True).run()
    mig = SweepRunner(migration_sweep(), force=True).run()

    matrix = []
    mismatches = unusable = 0
    ipop_cells = _cells(ipop.payloads)
    for (nat_a, nat_b), runs in sorted(_cells(wav.payloads).items()):
        want = expected_direct(nat_a, nat_b)
        direct = all(r["direct"] for r in runs)
        relay = all(r["relayed"] for r in runs)
        usable = all(r["usable"] for r in runs)
        ipop_direct = all(r["direct"] for r in ipop_cells[(nat_a, nat_b)])
        consistent = (direct if want else relay)
        mismatches += 0 if consistent else 1
        unusable += 0 if usable else 1
        matrix.append({
            "nat_a": nat_a, "nat_b": nat_b,
            "expected_direct": want,
            "wavnet_direct": direct,
            "wavnet_usable": usable,
            "ipop_direct": ipop_direct,
        })

    arms = {True: [], False: []}
    healed = {True: True, False: True}
    by_migration_ok = True
    for p in mig.payloads:
        arms[p["migration"]].extend(p["repair_seconds"])
        healed[p["migration"]] &= p["healed"]
        if p["migration"] and not p["healed_by_migration"]:
            by_migration_ok = False
    migration_dist = aggregate.distribution(arms[True])
    repunch_dist = aggregate.distribution(arms[False])

    return {
        "nat_specs": list(NAT_SPECS),
        "matrix_seeds": list(MATRIX_SEEDS),
        "migration_seeds": list(MIGRATION_SEEDS),
        "matrix": matrix,
        "matrix_mismatches": mismatches,
        "matrix_unusable": unusable,
        "wavnet_direct_cells": sum(1 for c in matrix if c["wavnet_direct"]),
        "ipop_direct_cells": sum(1 for c in matrix if c["ipop_direct"]),
        "total_cells": len(matrix),
        "migration_repair_seconds": migration_dist,
        "repunch_repair_seconds": repunch_dist,
        "all_healed": healed[True] and healed[False],
        "all_migrations_validated": by_migration_ok,
        "migration_gate_p95_s": MIGRATION_GATE_P95_S,
    }


def _grid(results: dict, key: str) -> list[str]:
    cells = {(c["nat_a"], c["nat_b"]): c for c in results["matrix"]}
    names = results["nat_specs"]
    lines = [" " * 20 + "".join(f"{n[:9]:>11}" for n in names)]
    for a in names:
        row = "".join(f"{'direct' if cells[(a, b)][key] else 'relay':>11}"
                      for b in names)
        lines.append(f"{a[:20]:>20}{row}")
    return lines


def render(results: dict) -> str:
    mig, rep = (results["migration_repair_seconds"],
                results["repunch_repair_seconds"])
    lines = ["NAT traversal matrix (WAVNet, port prediction on):"]
    lines += _grid(results, "wavnet_direct")
    lines.append(f"  direct cells: wavnet {results['wavnet_direct_cells']}"
                 f"/{results['total_cells']}  "
                 f"ipop {results['ipop_direct_cells']}"
                 f"/{results['total_cells']}")
    lines.append("NAT-reboot repair latency:")
    lines.append(f"  path migration    n={mig.get('count', 0):<3} "
                 f"mean {mig.get('mean_s', '-')}s  p95 {mig.get('p95_s', '-')}s  "
                 f"max {mig.get('max_s', '-')}s")
    lines.append(f"  re-punch baseline n={rep.get('count', 0):<3} "
                 f"mean {rep.get('mean_s', '-')}s  p95 {rep.get('p95_s', '-')}s  "
                 f"max {rep.get('max_s', '-')}s")
    return "\n".join(lines)


def check(results: dict) -> list[str]:
    failures = []
    if results["matrix_unusable"]:
        failures.append(f"{results['matrix_unusable']} matrix cells had no "
                        "usable connection")
    if results["matrix_mismatches"]:
        failures.append(f"{results['matrix_mismatches']} matrix cells "
                        "disagree with the prediction model")
    if results["wavnet_direct_cells"] <= results["ipop_direct_cells"]:
        failures.append("port prediction did not beat the IPOP baseline's "
                        "direct-connect rate")
    if not results["all_healed"] or not results["all_migrations_validated"]:
        failures.append("a NAT-reboot run failed to heal (or healed without "
                        "path validation in the migration arm)")
    mig_p95 = results["migration_repair_seconds"].get("p95_s", float("inf"))
    rep_p95 = results["repunch_repair_seconds"].get("p95_s", 0.0)
    if mig_p95 >= MIGRATION_GATE_P95_S:
        failures.append(f"migration repair p95 {mig_p95}s >= "
                        f"{MIGRATION_GATE_P95_S}s gate")
    if mig_p95 >= rep_p95:
        failures.append(f"migration p95 {mig_p95}s not faster than re-punch "
                        f"baseline p95 {rep_p95}s")
    return failures

"""Figure 10 — ICMP RTT and HTTP throughput during VM live migration.

A VM serving HTTP (1 KB file, concurrent AB load) migrates from
OffCam/SIAT/AIST to HKU while a second HKU host pings it. Paper
observations per subfigure:

* RTT is high and AB throughput modest while the VM is remote;
* during migration AB throughput dips and some pings are lost;
* downtime is sub-second to ~2 s (2.1 s AIST, 1.0 s SIAT, 0.6 s OffCam);
* after cutover RTT drops to local (<15 ms) and AB throughput jumps
  several-fold.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep


def test_fig10_timeline(emit):
    result = SweepRunner(get_sweep("fig10")).run()
    out = {p.coords["vms"][0]: p.payload for p in result}
    rows = []
    for src, r in out.items():
        rows.append((f"{src}-hku", round(r["rtt_before"], 1), round(r["rtt_after"], 1),
                     round(r["ab_before"], 0), round(r["ab_during"], 0),
                     round(r["ab_after"], 0),
                     round(r["migration"]["downtime_s"], 2), r["lost"]))
    emit(render_table(
        "Figure 10 - RTT and AB throughput across live migration "
        f"(migration at t={result.sweep.base_params['migrate_at']:.0f}s)",
        ["pair", "RTT pre(ms)", "RTT post(ms)", "AB pre(r/s)",
         "AB during", "AB post", "downtime(s)", "pings lost"], rows))
    check = ShapeCheck("Fig 10")
    for src, r in out.items():
        downtime = r["migration"]["downtime_s"]
        check.expect(f"{src}: post-migration RTT < 15 ms",
                     r["rtt_after"] < 15, f"{r['rtt_after']:.1f}")
        check.expect(f"{src}: RTT drops after migration",
                     r["rtt_after"] < r["rtt_before"] / 2)
        check.expect(f"{src}: AB throughput jumps after migration",
                     r["ab_after"] > 1.5 * r["ab_before"],
                     f"{r['ab_before']:.0f} -> {r['ab_after']:.0f}")
        check.expect(f"{src}: throughput dips during migration",
                     r["ab_during"] < r["ab_after"],
                     f"during {r['ab_during']:.0f} vs after {r['ab_after']:.0f}")
        check.expect(f"{src}: sub-3s downtime", downtime < 3.0, f"{downtime:.2f}s")
        check.expect(f"{src}: ping loss confined to the migration window",
                     r["lost"] == r["lost_in_window"] and r["lost"] > 0,
                     f"{r['lost_in_window']}/{r['lost']}")
    emit(check.render())
    check.print_and_assert()

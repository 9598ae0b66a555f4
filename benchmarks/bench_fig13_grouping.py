"""Figure 13 — average and maximum latency within a virtual cluster.

The locality-sensitive grouping algorithm (§II.D) selects k hosts from
the 400-host PlanetLab matrix for k = 2..75. Paper spot values: for
k = 8/16/32/64 the average latency is 1.3/15.4/26.1/54.1 ms with maxima
1.9/25.4/44.8/67.3 ms — orders of magnitude below the raw distribution
(median ~100 ms, tail to 10 s).
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep

SPOT_KS = [8, 16, 32, 64]


def test_fig13_grouping(emit):
    result = SweepRunner(get_sweep("fig13")).run()
    max_latency = result.sweep.base_params["max_latency"]
    rows = [(g["k"], g["ls"]["avg_s"] * 1000, g["ls"]["max_s"] * 1000,
             g["random"]["avg_s"] * 1000) for g in result.payloads[0]["problems"]]
    emit(render_table(
        "Figure 13 - intra-cluster latency for locality-sensitive groups (ms)",
        ["k hosts", "avg latency", "max latency", "random median avg"],
        [(k, round(a, 2), round(mx, 2), round(r, 1)) for k, a, mx, r in rows]))
    check = ShapeCheck("Fig 13")
    by_k = {k: (a, mx, r) for k, a, mx, r in rows}
    for k in SPOT_KS:
        avg, mx, rand = by_k[k]
        check.expect(f"k={k}: avg far below random median",
                     avg < rand / 3, f"{avg:.1f} vs {rand:.0f} ms")
        check.expect(f"k={k}: no over-large connection (filter respected)",
                     mx <= max_latency * 1000 * 1.001, f"max {mx:.1f} ms")
    avgs = [a for _k, a, _m, _r in rows]
    check.expect("avg latency grows with k (locality gets scarcer)",
                 all(avgs[i] <= avgs[i + 1] + 2 for i in range(len(avgs) - 1)),
                 str([round(a, 1) for a in avgs]))
    check.expect("small clusters are single-digit ms (paper: 1.3ms at k=8)",
                 by_k[8][0] < 10, f"{by_k[8][0]:.1f}")
    check.expect("k=64 average within the paper's magnitude (20-120 ms)",
                 20 <= by_k[64][0] <= 120, f"{by_k[64][0]:.1f}")
    emit(check.render())
    check.print_and_assert()

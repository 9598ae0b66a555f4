"""Figure 12 — network latency reported on PlanetLab (400 hosts).

The paper plots all measured host-pair latencies: (a) the full range up
to 10 s showing a heavy tail of pathological pairs; (b) the sub-second
zoom where the bulk lives. PlanetLab is gone, so we generate a synthetic
matrix with the same structure (see repro.scenarios.planetlab) and
report the distribution the scatter plots convey.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep
from repro.scenarios.planetlab import PAIR_BUCKETS_MS, PAIR_PERCENTILES


def test_fig12_planetlab(emit):
    (out,) = SweepRunner(get_sweep("fig12")).run().payloads
    ms = out["pairs_ms"]
    pct = dict(zip(PAIR_PERCENTILES, ms["percentiles"]))
    rows = [(f"p{p}", round(v, 2)) for p, v in pct.items()]
    rows.append(("max", round(ms["max"], 1)))
    emit(render_table(
        f"Figure 12 - latency distribution over {ms['count']:,} PlanetLab-like "
        "host pairs (ms)", ["percentile", "RTT (ms)"], rows))
    hist = [(f"{a}-{b}ms", n) for a, b, n in
            zip(PAIR_BUCKETS_MS, PAIR_BUCKETS_MS[1:], ms["buckets"])]
    emit(render_table("Figure 12 - pair counts by latency bucket",
                      ["bucket", "pairs"], hist))
    check = ShapeCheck("Fig 12")
    check.expect("~80,000 measured pairs (paper: half of 159,600)",
                 70_000 <= ms["count"] <= 90_000, f"{ms['count']:,}")
    check.expect("heavy tail reaches seconds (Fig 12a)", ms["max"] > 1000,
                 f"max {ms['max']:.0f} ms")
    check.expect("bulk is sub-second (Fig 12b)", pct[90] < 1000)
    check.expect("local pairs exist (< 5 ms)", ms["min"] < 5)
    check.expect("median in the WAN range 20-400 ms",
                 20 < pct[50] < 400, f"{pct[50]:.0f}")
    emit(check.render())
    check.print_and_assert()

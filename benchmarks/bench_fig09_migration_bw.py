"""Figure 9 — VM network bandwidth during live migration (emulated WAN).

netperf TCP_STREAM to a 256 MB VM, polled every 500 ms; migration is
triggered mid-stream. Paper results:

* LAN     — ~95% of native throughout; migration takes ~20 s.
* WAVNet  — ~60% of native; migration <30 s; the netperf session
  continues seamlessly after the gratuitous ARP.
* IPOP    — <10% of native; migration ~130 s; after the VM moves the
  session STALLS (the overlay keeps routing to the source host).

We reproduce all three curves with a scaled VM (64 MB) so the packet-
level simulation stays tractable; timing ratios between stacks are what
matter, not absolute seconds.
"""

import numpy as np

from repro.analysis.tables import ShapeCheck, render_series
from repro.exp import SweepRunner, get_sweep
from repro.scenarios.migration import TIMELINE_MIGRATE_AT as MIGRATE_AT


def phase_mean(result, t0, t1):
    t, r = np.asarray(result["times"]), np.asarray(result["rates_mbps"])
    sel = (t >= t0) & (t < t1)
    return float(r[sel].mean()) if sel.any() else 0.0


def test_fig09_migration_bw(emit):
    result = SweepRunner(get_sweep("fig09")).run()
    total = result.sweep.base_params["stream_s"]
    out = dict(zip(["LAN", "WAVNet", "IPOP"], result.payloads))
    times = out["LAN"]["times"]
    series = {name: [f"{r:.1f}" for r in res["rates_mbps"][:len(times)]]
              for name, res in out.items()}
    emit(render_series("Figure 9 - VM netperf Mbps during live migration "
                       f"(migration at t={MIGRATE_AT:.0f}s, 500ms polls)",
                       "t(s)", [f"{t:.1f}" for t in times[:len(series['LAN'])]],
                       series))
    emit(f"migration time: LAN={out['LAN']['migration_s']:.1f}s  "
         f"WAVNet={out['WAVNet']['migration_s']:.1f}s  "
         f"IPOP={out['IPOP']['migration_s']:.1f}s")
    check = ShapeCheck("Fig 9")
    lan_res, lan_mig = out["LAN"], out["LAN"]["migration_s"]
    wav_res, wav_mig = out["WAVNet"], out["WAVNet"]["migration_s"]
    ipop_res, ipop_mig = out["IPOP"], out["IPOP"]["migration_s"]
    lan_pre = phase_mean(lan_res, 2, MIGRATE_AT)
    wav_pre = phase_mean(wav_res, 2, MIGRATE_AT)
    ipop_pre = phase_mean(ipop_res, 2, MIGRATE_AT)
    check.expect("pre-migration: LAN ~ native (>=70 Mbps)", lan_pre >= 70,
                 f"{lan_pre:.1f}")
    check.expect("pre-migration: WAVNet >= 50% of LAN",
                 wav_pre >= 0.5 * lan_pre, f"{wav_pre:.1f} vs {lan_pre:.1f}")
    check.expect("pre-migration: IPOP <= 25% of LAN",
                 ipop_pre <= 0.25 * lan_pre, f"{ipop_pre:.1f} vs {lan_pre:.1f}")
    check.expect("migration: WAVNet comparable to LAN (< 2.5x)",
                 wav_mig < 2.5 * lan_mig, f"{wav_mig:.1f} vs {lan_mig:.1f}")
    check.expect("migration: IPOP much slower (> 3x LAN)",
                 ipop_mig > 3 * lan_mig, f"{ipop_mig:.1f} vs {lan_mig:.1f}")
    # Post-migration behaviour.
    lan_post = phase_mean(lan_res, MIGRATE_AT + lan_mig + 5, total)
    wav_post = phase_mean(wav_res, MIGRATE_AT + wav_mig + 5, total)
    ipop_post = phase_mean(ipop_res, MIGRATE_AT + ipop_mig + 5, total)
    check.expect("post-migration: LAN session continues", lan_post >= 0.7 * lan_pre,
                 f"{lan_post:.1f}")
    check.expect("post-migration: WAVNet session continues",
                 wav_post >= 0.7 * wav_pre, f"{wav_post:.1f} vs pre {wav_pre:.1f}")
    check.expect("post-migration: IPOP session stalls (< 5% of its pre rate)",
                 ipop_post <= 0.05 * max(ipop_pre, 0.1),
                 f"{ipop_post:.2f} vs pre {ipop_pre:.1f}")
    emit(check.render())
    check.print_and_assert()

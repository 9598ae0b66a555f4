"""Ablation — iterative pre-copy vs naive stop-and-copy.

The paper leans on Xen's pre-copy algorithm for its sub-second
downtimes (Fig 10). Setting ``max_rounds=0`` turns the engine into a
stop-and-copy migrator (pause, ship everything, resume): total time
shrinks slightly but downtime explodes from sub-second to the full
transfer time — the design reason live migration is "live".
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, aggregate, get_sweep
from repro.scenarios.migration import TIMELINE_VM_MB


def test_ablation_migration(emit):
    result = SweepRunner(get_sweep("ablation_migration")).run()
    precopy, stopcopy = aggregate.column(result, "migration")
    vm = result.sweep.base_params
    rows = [(strategy, r["rounds"], round(r["total_s"], 2), round(r["downtime_s"], 3),
             round(r["bytes"] / 1e6, 1))
            for strategy, r in (("iterative pre-copy", precopy),
                                ("stop-and-copy", stopcopy))]
    emit(render_table(
        f"Ablation - migration strategy ({TIMELINE_VM_MB} MB VM over "
        f"{vm['bandwidth_mbps']:.0f} Mbps)",
        ["strategy", "rounds", "total (s)", "downtime (s)", "MB moved"], rows))
    check = ShapeCheck("ablation/migration")
    check.expect("pre-copy downtime is sub-second",
                 precopy["downtime_s"] < 1.0, f"{precopy['downtime_s']:.3f}s")
    check.expect("stop-and-copy downtime ~ the whole transfer",
                 stopcopy["downtime_s"] > 0.9 * stopcopy["total_s"],
                 f"{stopcopy['downtime_s']:.2f} of {stopcopy['total_s']:.2f}s")
    check.expect("pre-copy cuts downtime by >= 5x",
                 precopy["downtime_s"] * 5 < stopcopy["downtime_s"])
    check.expect("pre-copy pays extra bytes for the dirty rounds",
                 precopy["bytes"] > stopcopy["bytes"])
    emit(check.render())
    check.print_and_assert()

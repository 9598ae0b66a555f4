"""Figure 11 — MPICH heat distribution with/without VM migration.

Four VMs run the heat-distribution MPI job over WAVNet: three at HKU,
one at SIAT. Without migration the SIAT rank's WAN link throttles the
whole job; with migration the SIAT VM moves to an HKU host shortly
after the job starts. Paper numbers (seconds):

    size      w/o migration   with migration   ratio
    64x64     397             121              30.5%
    128x128   1214            179              14.7%
    256x256   3798            365               9.6%->4.7%

Shape: migration always wins, and the relative benefit *grows* with
problem size (the WAN cost scales with the grid, the migration cost is
one-off).
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, aggregate, get_sweep
from repro.scenarios.migration import HEAT_GATHER_EVERY, HEAT_ITERATIONS_PER_M


def test_fig11_mpi_heat(emit):
    result = SweepRunner(get_sweep("fig11")).run()
    times = aggregate.table_rows(result, "grid", "to", "seconds")
    moves = [r["total_s"] if r else float("nan")
             for r in aggregate.column(result, "migration")[1::2]]
    rows = [(m, t_wo, t_w, mig, t_w / t_wo) for (m, t_wo, t_w), mig in zip(times, moves)]
    emit(render_table(
        "Figure 11 - MPI heat distribution execution time (s) "
        f"({HEAT_ITERATIONS_PER_M}*m iterations, gather every {HEAT_GATHER_EVERY})",
        ["size", "w/o migration", "with migration", "migration time",
         "with/without"],
        [(f"{m}x{m}", round(a, 1), round(b, 1), round(c, 1), f"{r:.1%}")
         for m, a, b, c, r in rows]))
    check = ShapeCheck("Fig 11")
    ratios = []
    for m, t_wo, t_w, _mig, ratio in rows:
        check.expect(f"{m}x{m}: migration wins", t_w < t_wo,
                     f"{t_w:.0f} vs {t_wo:.0f}s")
        check.expect(f"{m}x{m}: with-migration <= 50% of without",
                     ratio <= 0.50, f"{ratio:.1%}")
        ratios.append(ratio)
    check.expect("relative benefit grows with problem size",
                 ratios[0] > ratios[1] > ratios[2],
                 " > ".join(f"{r:.1%}" for r in ratios))
    check.expect("without-migration time grows ~linearly+ in m",
                 rows[2][1] > 1.8 * rows[1][1]
                 and rows[1][1] > 1.8 * rows[0][1],
                 f"{rows[0][1]:.0f} / {rows[1][1]:.0f} / {rows[2][1]:.0f}")
    emit(check.render())
    check.print_and_assert()

"""Figure 14 — NAS EP and FT on locality-sensitive vs random clusters.

4 or 8 hosts are picked from 64 pre-selected PlanetLab hosts either by
the locality-sensitive method or at random; NAS-style EP (embarrassingly
parallel) and FT (FFT with all-to-all transposes) run over the selected
hosts. Paper shape: random clusters are slower everywhere, but the gap
is modest for EP and dramatic for FT — FFT "highly relies on the
inter-host communication".

The MPI jobs run over a simulated network whose pairwise RTTs are the
PlanetLab matrix entries (problem classes scaled to keep the simulation
affordable; the locality-vs-random ratio is latency-driven and survives
the scaling).
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep


def test_fig14_nas(emit):
    (out,) = SweepRunner(get_sweep("fig14")).run().payloads
    rows = [(case, n, t_rand, t_good, t_rand / t_good)
            for case, n, t_rand, t_good in out["rows"]]
    emit(render_table(
        "Figure 14 - NAS benchmarks: random vs locality-sensitive cluster (s)",
        ["case", "hosts", "random", "locality", "speedup"],
        [(c, n, round(r, 1), round(g, 1), f"{s:.2f}x") for c, n, r, g, s in rows]))
    check = ShapeCheck("Fig 14")
    speedups = {}
    for case, n, t_rand, t_good, s in rows:
        speedups[(case, n)] = s
        check.expect(f"{case} x{n}: locality-sensitive no slower",
                     s >= 0.98, f"{s:.2f}x")
    for n in (4, 8):
        ep_gain = max(speedups[("EP(A)", n)], speedups[("EP(B)", n)])
        ft_gain = min(speedups[("FT(A)", n)], speedups[("FT(B)", n)])
        check.expect(f"x{n}: FT benefits far more than EP",
                     ft_gain > 1.5 * ep_gain,
                     f"FT {ft_gain:.2f}x vs EP {ep_gain:.2f}x")
        check.expect(f"x{n}: FT speedup substantial (> 1.5x)",
                     ft_gain > 1.5)
    emit(check.render())
    check.print_and_assert()

"""Ablation — grouping algorithm quality/runtime frontier.

Compares the paper's O(N·k) locality-sensitive algorithm against the
O(C(N,k)) brute-force optimum (small instances only), a greedy grower,
and random selection — the quality-vs-cost trade that justifies §II.D's
approximation claim.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep


def test_ablation_grouping(emit):
    (out,) = SweepRunner(get_sweep("ablation_grouping")).run().payloads
    small, large = ({name: r for name, r in problem.items() if isinstance(r, dict)}
                    for problem in out["problems"])
    rows = [(scale, name, r["avg_s"] * 1000, r["candidates"], r["wall_s"] * 1000)
            for scale, algos in (("small", small), ("large", large))
            for name, r in algos.items()]
    emit(render_table(
        "Ablation - grouping algorithms (avg latency in ms, wall ms)",
        ["instance", "algorithm", "avg latency", "candidates", "wall (ms)"],
        [(s, n, round(a, 2), c, round(w, 2)) for s, n, a, c, w in rows]))
    check = ShapeCheck("ablation/grouping")
    opt = small["brute"]["avg_s"]
    check.expect("locality-sensitive within 25% of brute-force optimum",
                 small["ls"]["avg_s"] <= opt * 1.25,
                 f"{small['ls']['avg_s'] * 1000:.2f} vs "
                 f"{opt * 1000:.2f} ms")
    check.expect("brute force examines far more candidates",
                 small["brute"]["candidates"]
                 > 20 * small["ls"]["candidates"])
    check.expect("at N=300: LS candidates <= N*(k+1) (O(N*k) claim)",
                 large["ls"]["candidates"] <= 300 * 17,
                 f"{large['ls']['candidates']}")
    check.expect("LS beats random by an order of magnitude at N=300",
                 large["ls"]["avg_s"] * 10
                 <= large["random"]["avg_s"],
                 f"{large['ls']['avg_s'] * 1000:.1f} vs "
                 f"{large['random']['avg_s'] * 1000:.0f} ms")
    check.expect("greedy is competitive but LS is no worse than 1.5x greedy",
                 large["ls"]["avg_s"]
                 <= 1.5 * large["greedy"]["avg_s"] + 1e-6)
    emit(check.render())
    check.print_and_assert()

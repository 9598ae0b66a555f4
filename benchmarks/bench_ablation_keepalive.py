"""Ablation — CONNECT_PULSE period vs NAT binding timeout.

The paper picks a 5 s pulse against NAT timeouts of "a couple of
minutes". This ablation sweeps the pulse period against a 60 s NAT
timeout and measures (a) whether an idle tunnel survives 10 minutes and
(b) the keepalive overhead in bytes/second — the trade-off the 2-byte
CONNECT_PULSE header is designed to sit on.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep
from repro.scenarios.wavnet_env import KEEPALIVE_IDLE, KEEPALIVE_NAT_TIMEOUT


def test_ablation_keepalive(emit):
    result = SweepRunner(get_sweep("ablation_keepalive")).run()
    rows = [(p.coords["pulse_interval"], p.payload["usable"], p.payload["alive"],
             p.payload["overhead_bps"]) for p in result]
    emit(render_table(
        f"Ablation - keepalive period vs NAT timeout ({KEEPALIVE_NAT_TIMEOUT:.0f}s), "
        f"{KEEPALIVE_IDLE:.0f}s idle",
        ["pulse period (s)", "conn usable", "traffic flows", "overhead (B/s)"],
        [(p, u, a, round(o, 2)) for p, u, a, o in rows]))
    check = ShapeCheck("ablation/keepalive")
    by_period = {p: (u, a, o) for p, u, a, o in rows}
    for p in (2.0, 5.0, 20.0, 45.0):
        check.expect(f"pulse {p:.0f}s (< timeout) keeps the tunnel alive",
                     by_period[p][0] and by_period[p][1])
    check.expect("pulse 90s (> timeout) loses the binding",
                 not by_period[90.0][1])
    check.expect("paper's 5s period costs under 1 B/s of payload",
                 by_period[5.0][2] < 1.0, f"{by_period[5.0][2]:.2f}")
    check.expect("overhead shrinks with longer periods",
                 by_period[2.0][2] > by_period[5.0][2] > by_period[45.0][2])
    emit(check.render())
    check.print_and_assert()

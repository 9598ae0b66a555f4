"""Table III — HTTP connection time before/after VM migration.

An HTTP server runs in a VM at SIAT; clients at Sinica and HKU1 measure
ApacheBench connection times; then the VM live-migrates over WAVNet to
HKU2 and the measurement repeats. Paper rows (ping / conn-time mean):

    Sinica -> VM@SIAT   100.3 ms   mean 107 ms
    Sinica -> VM@HKU2    24.8 ms   mean  33 ms
    HKU1   -> VM@SIAT    74.2 ms   mean  80 ms
    HKU1   -> VM@HKU2     0.5 ms   mean   7 ms

Shape: connection time ~ path RTT + a small constant, and migration to
a nearby host slashes it accordingly.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep
from repro.scenarios.sites import pair_rtt_ms


def test_table3_http_conn(emit):
    (out,) = SweepRunner(get_sweep("table3")).run().payloads
    rows = [(f"{client} to VM@{where}", *ms)
            for where, phase in (("siat", "before"), ("hku2", "after"))
            for client, ms in out[phase].items()]
    before = {client: ms[1] for client, ms in out["before"].items()}
    after = {client: ms[1] for client, ms in out["after"].items()}
    report = out["migration"]
    emit(render_table(
        "Table III - HTTP connection time before/after VM migration (ms)",
        ["client and VM location", "min", "mean", "max"], rows))
    emit(f"migration: {report['total_s']:.1f}s total, "
         f"{report['downtime_s'] * 1000:.0f}ms downtime, {report['rounds']} rounds")
    check = ShapeCheck("Table III")
    for client in ("sinica", "hku1"):
        check.expect(f"{client}: migration cuts connection time",
                     after[client] < before[client] / 2,
                     f"{before[client]:.0f} -> {after[client]:.0f} ms")
        # Connection time tracks the path RTT (one RTT + small constant).
        rtt_before = pair_rtt_ms(client, "siat")
        check.expect(f"{client} before: mean within [RTT, RTT+30ms]",
                     rtt_before <= before[client] <= rtt_before + 30,
                     f"{before[client]:.0f} vs RTT {rtt_before:.0f}")
        rtt_after = pair_rtt_ms(client, "hku2")
        check.expect(f"{client} after: mean within [RTT, RTT+30ms]",
                     rtt_after <= after[client] <= rtt_after + 30,
                     f"{after[client]:.0f} vs RTT {rtt_after:.0f}")
    emit(check.render())
    check.print_and_assert()

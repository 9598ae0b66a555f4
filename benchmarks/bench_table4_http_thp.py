"""Table IV — HTTP throughput before/after VM migration.

Same setup as Table III; ApacheBench measures requests/second for 1K,
8K, and 64K files. Paper rows (req/s):

    client->VM             bw(Mbps)   1K     8K     64K
    Sinica->VM@SIAT        18.05      432.9  215.1  45.7
    Sinica->VM@HKU2        21.69      583.3  332.3  53.9
    HKU1->VM@SIAT          18.6       473.1  288.9  56.9
    HKU1->VM@HKU2          79.15      775.5  461.8  128.2

Shape: throughput rises after migration for every file size, most
dramatically for the HKU1 client whose post-migration path is local.
"""

from repro.analysis.tables import ShapeCheck, render_table
from repro.exp import SweepRunner, get_sweep


def test_table4_http_thp(emit):
    (out,) = SweepRunner(get_sweep("table4")).run().payloads
    results = {(client, where): rates
               for where, phase in (("siat", "before"), ("hku2", "after"))
               for client, rates in out[phase].items()}
    rows = [(f"{c} to VM@{loc}",) + tuple(round(r, 1) for r in rates)
            for (c, loc), rates in results.items()]
    emit(render_table(
        "Table IV - HTTP throughput before/after VM migration (req/s, ab -c 8)",
        ["client and VM location", "1K", "8K", "64K"], rows))
    check = ShapeCheck("Table IV")
    for client in ("sinica", "hku1"):
        before = results[(client, "siat")]
        after = results[(client, "hku2")]
        for i, size in enumerate(("1K", "8K", "64K")):
            check.expect(f"{client} {size}: throughput improves after migration",
                         after[i] > before[i],
                         f"{before[i]:.0f} -> {after[i]:.0f} req/s")
        check.expect(f"{client}: smaller files yield more req/s",
                     after[0] > after[1] > after[2])
    # HKU1 gains the most (its post-migration path is campus-local).
    gain_hku = results[("hku1", "hku2")][2] / results[("hku1", "siat")][2]
    gain_sin = results[("sinica", "hku2")][2] / results[("sinica", "siat")][2]
    check.expect("HKU1's 64K gain exceeds Sinica's", gain_hku > gain_sin,
                 f"{gain_hku:.2f}x vs {gain_sin:.2f}x")
    emit(check.render())
    check.print_and_assert()

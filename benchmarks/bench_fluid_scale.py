"""Fluid-plane scalability: 10^4 concurrent bulk flows vs packet TCP.

The fluid plane's reason to exist is scale: a bulk transfer costs one
calendar event per rate change instead of one per segment. This bench
runs the ``fluid_fanout`` experiment scenario (10,000 concurrent 64 KB
transfers over 10 host pairs) at both fidelities through the experiment
plane (``repro.exp``), so each run is a cached, deterministic
:class:`ExperimentSpec` envelope, and gates on the PR's two scalability
claims:

* **Wall clock** — the fluid run is >= 10x faster than the packet run.
* **Events** — the fluid run dispatches >= 500x fewer simulator events
  (flows that finish at one instant share one calendar entry, so what
  is left is about one ``done`` dispatch per flow).

Both runs must complete every flow. Aggregate goodput is *reported*
but not gated: at 1,000 flows per access link the fair share sits
below one segment per RTT, where packet TCP sheds load through queue
overflow and retransmission timeouts — a collapse regime the max-min
model intentionally idealizes. Cross-fidelity *agreement* is gated in
``bench_fluid_agreement.py`` on matched steady-state regimes; this
bench measures what fidelity costs.

The ``fluid_scale`` case of ``benchmarks/gates.py`` (one size).
"""

from __future__ import annotations

from repro.exp.spec import ExperimentSpec, run_spec

N_FLOWS = 10_000
WALL_SPEEDUP_FLOOR = 10.0
EVENTS_RATIO_FLOOR = 500.0


def run(quick: bool) -> dict:
    rows = {}
    for fidelity in ("packet", "fluid"):
        env = run_spec(ExperimentSpec(scenario="fluid_fanout", seed=7,
                                      params={"fidelity": fidelity,
                                              "n_flows": N_FLOWS}))
        rows[fidelity] = {
            "completed": env["payload"]["completed"],
            "sim_seconds": round(env["payload"]["sim_seconds"], 3),
            "goodput_mbps": round(env["payload"]["goodput_mbps"], 2),
            "events_dispatched": env["obs"]["events_dispatched"],
            "wall_seconds": round(env["wall_seconds"], 3),
        }
    pkt, fld = rows["packet"], rows["fluid"]
    return {
        "n_flows": N_FLOWS,
        "packet": pkt,
        "fluid": fld,
        "wall_speedup": round(pkt["wall_seconds"] /
                              max(fld["wall_seconds"], 1e-9), 1),
        "events_ratio": round(pkt["events_dispatched"] /
                              max(fld["events_dispatched"], 1), 1),
        "goodput_rel_delta": round(
            (fld["goodput_mbps"] - pkt["goodput_mbps"]) /
            pkt["goodput_mbps"], 4),
        "wall_speedup_floor": WALL_SPEEDUP_FLOOR,
        "events_ratio_floor": EVENTS_RATIO_FLOOR,
    }


def render(results: dict) -> str:
    lines = [f"Fluid-plane scalability: {results['n_flows']:,} "
             "concurrent 64 KB flows over 10 pairs"]
    for fidelity in ("packet", "fluid"):
        r = results[fidelity]
        lines.append(f"  {fidelity:<7} wall {r['wall_seconds']:>8.3f}s  "
                     f"events {r['events_dispatched']:>12,}  "
                     f"sim {r['sim_seconds']:>7.3f}s  "
                     f"goodput {r['goodput_mbps']:>8.2f} Mbps  "
                     f"completed {r['completed']:,}")
    lines.append(f"  wall speedup {results['wall_speedup']}x "
                 f"(floor {WALL_SPEEDUP_FLOOR:.0f}x), "
                 f"event ratio {results['events_ratio']}x "
                 f"(floor {EVENTS_RATIO_FLOOR:.0f}x), "
                 f"goodput delta {results['goodput_rel_delta']:+.2%}")
    return "\n".join(lines)


def check(results: dict) -> list[str]:
    failures = [f"{fidelity}: {results[fidelity]['completed']} of "
                f"{results['n_flows']} flows completed"
                for fidelity in ("packet", "fluid")
                if results[fidelity]["completed"] != results["n_flows"]]
    if results["wall_speedup"] < WALL_SPEEDUP_FLOOR:
        failures.append(f"wall speedup {results['wall_speedup']}x "
                        f"< floor {WALL_SPEEDUP_FLOOR:.0f}x")
    if results["events_ratio"] < EVENTS_RATIO_FLOOR:
        failures.append(f"events ratio {results['events_ratio']}x "
                        f"< floor {EVENTS_RATIO_FLOOR:.0f}x")
    return failures

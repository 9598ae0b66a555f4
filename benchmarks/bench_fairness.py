"""Bottleneck fairness across congestion-control algorithms and stacks.

ROADMAP item 2 asks whether L2-over-UDP tunneling distorts TCP fairness
the way overlay routing does. This bench runs the
``fairness_bottleneck`` scenario (``repro/scenarios/fairness.py``) for
every registered congestion-control algorithm (reno / cubic / bbr) over
the WAVNet tunnel and the IPOP baseline, at both fidelities, and gates
on:

* **Fairness** — Jain's index over per-flow goodput >= 0.95 at packet
  fidelity (>= 0.99 at fluid: the max-min solver is fair by
  construction, so this is a wiring check).
* **Agreement** — per-flow packet-vs-fluid goodput within +-10%
  (index-matched flows; the scenario's default buffers hold the packet
  plane in its stable ACK-clocked regime, see the scenario docstring).
* **Utilization** — bottleneck wire utilization >= 0.85 at packet
  fidelity (the link is actually saturated, not fair-but-idle).

Also reported, unfloored: a mixed reno/cubic/bbr race on one
bottleneck, the parking-lot topology (long-flow RTT bias vs max-min),
and the elephants-vs-mice mix (short-flow completion times under bulk
load). These characterize inter-algorithm aggression and queueing
effects the max-min solver deliberately does not model.

The ``fairness`` case of ``benchmarks/gates.py``; quick runs every cell
for 30 sim-seconds instead of 40.
"""

from __future__ import annotations

from repro.scenarios.fairness import (fairness_bottleneck, fairness_mix,
                                      fairness_parking_lot)

ALGORITHMS = ("reno", "cubic", "bbr")
STACKS = ("wavnet", "ipop")
JAIN_FLOOR_PACKET = 0.95
JAIN_FLOOR_FLUID = 0.99
AGREEMENT_LIMIT_PCT = 10.0
UTILIZATION_FLOOR = 0.85
SEED = 1


def bottleneck_cell(stack: str, cc: str, duration: float) -> dict:
    """One gated cell: the same contended bottleneck at both fidelities."""
    payloads = {}
    for fidelity in ("packet", "fluid"):
        _sim, payloads[fidelity] = fairness_bottleneck(
            seed=SEED, stack=stack, cc=cc, fidelity=fidelity,
            duration=duration)
    pkt, flu = payloads["packet"], payloads["fluid"]
    devs = [abs(a - b) / b * 100.0
            for a, b in zip(pkt["per_flow_mbps"], flu["per_flow_mbps"])]
    return {
        "stack": stack, "cc": cc,
        "packet_mbps": [round(x, 4) for x in pkt["per_flow_mbps"]],
        "fluid_mbps": [round(x, 4) for x in flu["per_flow_mbps"]],
        "jain_packet": round(pkt["jain"], 4),
        "jain_fluid": round(flu["jain"], 4),
        "max_flow_delta_pct": round(max(devs), 2),
        "utilization_packet": round(pkt["utilization"], 3),
        "rtt_inflation": round(pkt["rtt_inflation"], 2),
    }


def extras(duration: float) -> dict:
    """Unfloored characterization runs (see module docstring)."""
    _sim, mixed = fairness_bottleneck(seed=SEED, stack="wavnet",
                                      cc="reno,cubic,bbr",
                                      fidelity="packet", duration=duration)
    lots = {}
    for fidelity in ("packet", "fluid"):
        _sim, lots[fidelity] = fairness_parking_lot(
            seed=SEED, fidelity=fidelity, duration=duration)
    _sim, mice = fairness_mix(seed=SEED, stack="wavnet",
                              fidelity="packet", duration=duration)
    return {
        "mixed_race": {
            "cc": mixed["cc"],
            "per_flow_mbps": [round(x, 4) for x in mixed["per_flow_mbps"]],
            "jain": round(mixed["jain"], 4),
        },
        "parking_lot": {
            fid: {
                "per_flow_mbps": [round(x, 4) for x in p["per_flow_mbps"]],
                "jain": round(p["jain"], 4),
                "long_vs_maxmin": round(p["long_vs_maxmin"], 3),
            } for fid, p in lots.items()
        },
        "elephants_vs_mice": {
            "elephant_mbps": [round(x, 4) for x in mice["elephant_mbps"]],
            "jain_elephants": round(mice["jain_elephants"], 4),
            "mice_done": mice["mice_done"],
            "mice_fct_ms_mean": round(mice["mice_fct_ms_mean"], 1),
            "mice_fct_ms_p95": round(mice["mice_fct_ms_p95"], 1),
        },
    }


def run(quick: bool) -> dict:
    duration = 30.0 if quick else 40.0
    cells = [bottleneck_cell(stack, cc, duration)
             for stack in STACKS for cc in ALGORITHMS]
    return {
        "duration": duration,
        "cells": cells,
        "extras": extras(duration),
        "jain_floor_packet": JAIN_FLOOR_PACKET,
        "jain_floor_fluid": JAIN_FLOOR_FLUID,
        "agreement_limit_pct": AGREEMENT_LIMIT_PCT,
        "utilization_floor": UTILIZATION_FLOOR,
    }


def render(results: dict) -> str:
    lines = ["Bottleneck fairness (3 flows, 1 Mbps / 200 ms, per-flow Mbps)"]
    for c in results["cells"]:
        lines.append(
            f"  {c['stack']:<7} {c['cc']:<6} "
            f"jain {c['jain_packet']:.4f}/{c['jain_fluid']:.4f}  "
            f"util {c['utilization_packet']:.3f}  "
            f"rtt x{c['rtt_inflation']:.2f}  "
            f"max flow delta {c['max_flow_delta_pct']:+5.2f}%")
    ex = results["extras"]
    mixed = ex["mixed_race"]
    lines.append(f"  mixed race {'/'.join(mixed['cc'])}: "
                 f"{mixed['per_flow_mbps']} jain {mixed['jain']:.4f}")
    for fid, p in ex["parking_lot"].items():
        lines.append(f"  parking lot [{fid}]: long/maxmin "
                     f"{p['long_vs_maxmin']:.3f} jain {p['jain']:.4f}")
    mice = ex["elephants_vs_mice"]
    lines.append(f"  elephants+mice: jain(E) {mice['jain_elephants']:.4f}, "
                 f"{mice['mice_done']} mice, FCT mean "
                 f"{mice['mice_fct_ms_mean']:.0f} ms "
                 f"p95 {mice['mice_fct_ms_p95']:.0f} ms")
    return "\n".join(lines)


def check(results: dict) -> list[str]:
    failures = []
    for c in results["cells"]:
        where = f"{c['stack']}/{c['cc']}"
        if c["jain_packet"] < JAIN_FLOOR_PACKET:
            failures.append(f"{where}: packet Jain {c['jain_packet']:.4f} "
                            f"< {JAIN_FLOOR_PACKET}")
        if c["jain_fluid"] < JAIN_FLOOR_FLUID:
            failures.append(f"{where}: fluid Jain {c['jain_fluid']:.4f} "
                            f"< {JAIN_FLOOR_FLUID}")
        if c["max_flow_delta_pct"] > AGREEMENT_LIMIT_PCT:
            failures.append(f"{where}: per-flow fluid-vs-packet delta "
                            f"{c['max_flow_delta_pct']:.2f}% > "
                            f"{AGREEMENT_LIMIT_PCT:.0f}%")
        if c["utilization_packet"] < UTILIZATION_FLOOR:
            failures.append(f"{where}: utilization "
                            f"{c['utilization_packet']:.3f} "
                            f"< {UTILIZATION_FLOOR}")
    return failures

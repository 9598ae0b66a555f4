"""Fluid vs packet data-plane agreement: fig06 / fig07 / table4 cells.

The fluid plane (``repro.net.fluid``) replaces per-segment TCP with one
max-min-fair flow per transfer. This bench replays the paper's three
throughput experiments at both fidelities and gates on two claims:

* **Agreement** — every cell's fluid steady-state throughput is within
  +-5% of the packet plane's.
* **Event reduction** — across the cell set the packet plane dispatches
  >= 100x more simulator events than the fluid plane.

Cell protocols (why each looks the way it does — DESIGN.md §12):

* *fig06-style* — bulk ttcp at 74.2 ms / 18.6 Mbps, measured by size
  differencing: rate = (S2-S1)*8/(t2-t1) for 8 MB and 16 MB transfers.
  Differencing cancels the slow-start transient in both planes, so the
  comparison is the steady state the paper's 16 MB transfers measure.
* *fig07-style* — netperf tails at RTT 20 ms under shaping, buffers
  tuned to BDP + half the bottleneck queue. Tuning keeps packet TCP out
  of its perpetual-AIMD-sawtooth regime (rwnd > BDP + queue means
  standing loss), which is real TCP behavior but not a steady state a
  rate model can or should reproduce. The tail is the mean of the
  second half of a 12 s run. IPOP runs only its wire-limited cells
  (6.25 / 12.5 Mbps): shaped near or above its user-level-stack CPU
  ceiling the packet plane is metastable between two regimes, which is
  packet-fidelity territory by design.
* *table4-style* — ApacheBench request throughput against the HTTP
  server at 74.2 ms / 18.6 Mbps. The /file64k cell runs at concurrency
  2: at c=8 the workers' 24-segment slow-start bursts collide in the
  shaped queue, a packet-level queueing effect the fluid plane's
  round-latency model deliberately does not carry.

The ``fluid_agreement`` case of ``benchmarks/gates.py`` (the
scalability half is ``fluid_scale``, ``bench_fluid_scale.py``); quick
runs one stack-diverse slice of each protocol.
"""

from __future__ import annotations

from repro.apps.ab import ApacheBench
from repro.apps.httpd import HttpServer
from repro.apps.netperf import netperf_stream, netserver
from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.core.options import TransferOptions
from repro.scenarios.fluid import fluidify
from repro.scenarios.stacks import ipop_pair, physical_pair, wavnet_pair

MB = 1024 * 1024
DELTA_LIMIT_PCT = 5.0
EVENTS_RATIO_FLOOR = 100.0

PAIRS = {"physical": (physical_pair, 1),
         "wavnet": (wavnet_pair, 2),
         "ipop": (ipop_pair, 3)}

# Paper's measured WAN path for fig06 / table4.
FIG06_RTT, FIG06_BW = 0.0742, 18.6e6
FIG07_RTT = 0.020
FIG07_RATES = {"physical": (6.25, 12.5, 25.0, 50.0, 100.0),
               "wavnet": (6.25, 12.5, 25.0, 50.0, 100.0),
               # Wire-limited cells only; see module docstring.
               "ipop": (6.25, 12.5)}
TABLE4_CELLS = (("/file1k", 8, 64), ("/file8k", 8, 64), ("/file64k", 2, 24))

# CI subset: one stack-diverse slice of each protocol, bulk-heavy so the
# event-ratio gate still measures the fluid plane's point.
QUICK_FIG06 = ("physical", "wavnet")
QUICK_FIG07 = {"physical": (12.5,), "wavnet": (12.5,), "ipop": (12.5,)}
QUICK_TABLE4 = (("/file8k", 8, 64),)


def _mkpair(stack: str, rtt: float, bw: float, **kw):
    mk, seed = PAIRS[stack]
    return mk(rtt, bw, seed=seed, **kw)


# ----------------------------------------------------------------------
# Cell runners. Each returns (packet_value, fluid_value, ev_p, ev_f).
# ----------------------------------------------------------------------

def _ttcp_elapsed(stack: str, nbytes: int, fidelity: str):
    pair = _mkpair(stack, FIG06_RTT, FIG06_BW)
    if fidelity == "fluid":
        fluidify(pair)
    else:
        pair.sim.process(ttcp_receiver(pair.host_b))
    proc = pair.sim.process(
        ttcp_transfer(pair.host_a, pair.ip_b, nbytes,
                      options=TransferOptions(fidelity=fidelity)))
    pair.sim.run(until=proc)
    return proc.value.elapsed, pair.sim.events_dispatched


def fig06_cell(stack: str, s1: int = 8 * MB, s2: int = 16 * MB):
    """Differenced bulk-rate agreement: (s2-s1)*8/(t2-t1)."""
    out = {}
    events = {}
    for fidelity in ("packet", "fluid"):
        t1, e1 = _ttcp_elapsed(stack, s1, fidelity)
        t2, e2 = _ttcp_elapsed(stack, s2, fidelity)
        out[fidelity] = (s2 - s1) * 8 / 1e6 / (t2 - t1)
        events[fidelity] = e1 + e2
    return out["packet"], out["fluid"], events["packet"], events["fluid"]


def fig07_cell(stack: str, rate_mbps: float, duration: float = 12.0):
    """Shaped netperf tail agreement at tuned buffers."""
    bdp_pkts = rate_mbps * 1e6 * FIG07_RTT / 8 / 1460
    buf = int((bdp_pkts + 64) * 1460)
    out = {}
    events = {}
    for fidelity in ("packet", "fluid"):
        pair = _mkpair(stack, FIG07_RTT, rate_mbps * 1e6,
                       send_buf=buf, recv_buf=buf)
        if fidelity == "fluid":
            fluidify(pair)
        else:
            pair.sim.process(netserver(pair.host_b))
        proc = pair.sim.process(netperf_stream(
            pair.host_a, pair.ip_b, duration=duration,
            options=TransferOptions(fidelity=fidelity)))
        pair.sim.run(until=proc)
        rates = proc.value.rates_mbps
        out[fidelity] = sum(rates[len(rates) // 2:]) / (len(rates) -
                                                        len(rates) // 2)
        events[fidelity] = pair.sim.events_dispatched
    return out["packet"], out["fluid"], events["packet"], events["fluid"]


def table4_cell(stack: str, path: str, concurrency: int, n_requests: int):
    """ApacheBench request-throughput agreement."""
    out = {}
    events = {}
    for fidelity in ("packet", "fluid"):
        pair = _mkpair(stack, FIG06_RTT, FIG06_BW)
        if fidelity == "fluid":
            fluidify(pair)
        else:
            HttpServer(pair.host_b)
        ab = ApacheBench(pair.host_a, pair.ip_b, path=path,
                         concurrency=concurrency,
                         options=TransferOptions(fidelity=fidelity))
        proc = pair.sim.process(ab.run_requests(n_requests))
        pair.sim.run(until=proc)
        assert proc.value.requests_failed == 0
        out[fidelity] = proc.value.requests_per_second
        events[fidelity] = pair.sim.events_dispatched
    return out["packet"], out["fluid"], events["packet"], events["fluid"]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def _cell_row(bench: str, stack: str, label: str, packet: float,
              fluid: float, ev_p: int, ev_f: int) -> dict:
    return {
        "bench": bench, "stack": stack, "cell": label,
        "packet": round(packet, 3), "fluid": round(fluid, 3),
        "delta_pct": round((fluid - packet) / packet * 100, 2),
        "events_packet": ev_p, "events_fluid": ev_f,
    }


def run(quick: bool) -> dict:
    cells = []
    fig06_stacks = QUICK_FIG06 if quick else tuple(PAIRS)
    fig07_rates = QUICK_FIG07 if quick else FIG07_RATES
    table4_cells = QUICK_TABLE4 if quick else TABLE4_CELLS
    for stack in fig06_stacks:
        cells.append(_cell_row("fig06", stack, "ttcp 8->16MB",
                               *fig06_cell(stack)))
    for stack, rates in fig07_rates.items():
        for rate in rates:
            cells.append(_cell_row("fig07", stack, f"{rate:g}Mbps",
                                   *fig07_cell(stack, rate)))
    for stack in ("physical", "wavnet"):
        for path, conc, n in table4_cells:
            cells.append(_cell_row("table4", stack, f"{path} c={conc}",
                                   *table4_cell(stack, path, conc, n)))
    ev_p = sum(c["events_packet"] for c in cells)
    ev_f = sum(c["events_fluid"] for c in cells)
    return {
        "cells": cells,
        "max_abs_delta_pct": max(abs(c["delta_pct"]) for c in cells),
        "events_packet": ev_p,
        "events_fluid": ev_f,
        "events_ratio": round(ev_p / ev_f, 1),
        "delta_limit_pct": DELTA_LIMIT_PCT,
        "events_ratio_floor": EVENTS_RATIO_FLOOR,
    }


def render(results: dict) -> str:
    lines = ["Fluid vs packet agreement (steady-state throughput)"]
    for c in results["cells"]:
        lines.append(f"  {c['bench']:<7} {c['stack']:<9} {c['cell']:<13} "
                     f"packet {c['packet']:>8.3f}  fluid {c['fluid']:>8.3f}  "
                     f"delta {c['delta_pct']:+6.2f}%  "
                     f"events {c['events_packet']:>8}/{c['events_fluid']:<6}")
    lines.append(f"  max |delta| {results['max_abs_delta_pct']:.2f}% "
                 f"(limit {DELTA_LIMIT_PCT:.0f}%), "
                 f"event ratio {results['events_ratio']}x "
                 f"(floor {EVENTS_RATIO_FLOOR:.0f}x)")
    return "\n".join(lines)


def check(results: dict) -> list[str]:
    failures = [f"{c['bench']} {c['stack']} {c['cell']}: delta "
                f"{c['delta_pct']:+.2f}% exceeds {DELTA_LIMIT_PCT:.0f}%"
                for c in results["cells"]
                if abs(c["delta_pct"]) > DELTA_LIMIT_PCT]
    if results["events_ratio"] < EVENTS_RATIO_FLOOR:
        failures.append(f"events ratio {results['events_ratio']}x "
                        f"< floor {EVENTS_RATIO_FLOOR:.0f}x")
    return failures

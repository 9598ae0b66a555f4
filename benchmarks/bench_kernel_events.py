"""Kernel microbenchmark: raw event-loop throughput on the three hot
patterns every WAVNet experiment leans on.

* ``timer_churn`` — punch/keepalive-style timer rearm: processes sleep on
  timeouts and get interrupted away from them, leaving stale calendar
  entries (the pattern of CONNECT_PULSE rearms and punch-loop teardown).
* ``frame_fanout`` — per-frame delivery: a learning switch floods frames
  to N sinks over unshaped links, the ``call_in``/bound-delivery path.
* ``ttcp_transfer`` — a Fig-6-style bulk TCP transfer over a fast link:
  segments, ACKs, and retransmit-timer management end to end.

Each workload is deterministic; the score is logical operations per
wall-clock second (op counts are fixed per workload, so scores are
comparable across kernel versions even when the kernel dispatches a
different number of internal events). Results land in
``BENCH_kernel.json`` at the repo root, next to the recorded baselines.

Run standalone (``python benchmarks/bench_kernel_events.py``) or via
pytest. ``--check`` exits non-zero if any score falls more than 3x below
the recorded post-fast-path baseline — the CI perf-smoke floor.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.net.addresses import BROADCAST_MAC, mac_factory  # noqa: E402
from repro.net.l2 import Link, Port, Switch  # noqa: E402
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame, Payload  # noqa: E402
from repro.sim import Interrupt, Simulator  # noqa: E402

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

# Ops/sec measured on the pre-fast-path kernel (seed of this PR), same
# workloads, same machine. The >=2x acceptance compares against these.
BASELINE_PRE = {
    "timer_churn": 112_841,
    "frame_fanout": 57_408,
    "ttcp_transfer": 13_954,
}

# Ops/sec measured on the current kernel (re-recorded with PR 13's
# fused dispatch loop and slotted wire formats: three runs on the 2-core
# container, python 3.11, lowest of the three rounded down; the parent
# commit scored 540k / 372k / 50k on the same box the same hour). The CI
# perf-smoke floor is a generous 3x below this (runner hardware varies
# widely). Re-record whenever a PR moves the kernel or the frame path.
BASELINE_POST = {
    "timer_churn": 575_000,
    "frame_fanout": 400_000,
    "ttcp_transfer": 75_000,
}


# ----------------------------------------------------------------------
# Workloads. Each returns (logical_ops, events_dispatched).
# ----------------------------------------------------------------------

def timer_churn(n_procs: int = 300, rounds: int = 120) -> tuple[int, int]:
    sim = Simulator(seed=1)

    def sleeper(sim):
        while True:
            try:
                # Long sleep: the interrupt always lands first, so every
                # round abandons one pending timeout on the calendar.
                yield sim.timeout(1e6)
            except Interrupt:
                continue

    procs = [sim.process(sleeper(sim), name=f"sleeper:{i}")
             for i in range(n_procs)]

    def churner(sim):
        for _ in range(rounds):
            yield sim.timeout(1.0)
            for p in procs:
                p.interrupt()

    sim.process(churner(sim), name="churner")
    sim.run(until=rounds + 1.0)
    # One interrupt delivered + one timeout rearmed per proc per round.
    return 2 * n_procs * rounds, sim.events_dispatched


class _Sink:
    __slots__ = ("frames",)

    def __init__(self) -> None:
        self.frames = 0

    def on_frame(self, frame, port) -> None:
        self.frames += 1


def frame_fanout(n_sinks: int = 16, rounds: int = 400,
                 per_round: int = 4) -> tuple[int, int]:
    sim = Simulator(seed=2)
    switch = Switch(sim, forward_delay=5e-6)
    mint = mac_factory()
    sinks = []
    for i in range(n_sinks):
        sink = _Sink()
        port = Port(sink, name=f"sink{i}")
        Link(sim, switch.new_port(), port, latency=0.0001,
             bandwidth_bps=None, name=f"fan{i}")
        sinks.append(sink)
    src = Port(_Sink(), name="src")
    Link(sim, src, switch.new_port(), latency=0.0001,
         bandwidth_bps=None, name="uplink")
    frame = EthernetFrame(mint(), BROADCAST_MAC, ETHERTYPE_IPV4,
                          Payload(256, data=None))

    def blaster(sim):
        for _ in range(rounds):
            for _ in range(per_round):
                src.transmit(frame)
            yield sim.timeout(0.001)

    sim.process(blaster(sim), name="blaster")
    sim.run()
    delivered = sum(s.frames for s in sinks)
    assert delivered == rounds * per_round * n_sinks, delivered
    return delivered, sim.events_dispatched


def ttcp_transfer(total_mb: int = 8) -> tuple[int, int]:
    from repro.apps.ttcp import ttcp_receiver, ttcp_transfer as ttcp_tx
    from repro.scenarios.builder import host_pair

    sim = Simulator(seed=3)
    a, b, _link = host_pair(sim, latency=0.002, bandwidth_bps=1e9)
    sim.process(ttcp_receiver(b), name="ttcp-rx")
    p = sim.process(
        ttcp_tx(a, b.stack.interfaces[0].ip, total_mb * 1024 * 1024),
        name="ttcp-tx")
    sim.run(until=p)
    segments = a.tcp.segments_sent + b.tcp.segments_sent
    return segments, sim.events_dispatched


WORKLOADS = {
    "timer_churn": timer_churn,
    "frame_fanout": frame_fanout,
    "ttcp_transfer": ttcp_transfer,
}


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

def run_all(repeats: int = 3) -> dict:
    results = {}
    for name, fn in WORKLOADS.items():
        best = None
        ops = events = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            ops, events = fn()
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        score = ops / best if best else 0.0
        results[name] = {
            "ops": ops,
            "events_dispatched": events,
            "wall_s": round(best, 4),
            "ops_per_s": round(score),
            "baseline_pre_ops_per_s": BASELINE_PRE[name],
            "baseline_post_ops_per_s": BASELINE_POST[name],
            "speedup_vs_pre": round(score / BASELINE_PRE[name], 2),
        }
    return results


def write_json(results: dict) -> None:
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def check_floor(results: dict) -> bool:
    ok = True
    for name, row in results.items():
        floor = BASELINE_POST[name] / 3
        if row["ops_per_s"] < floor:
            print(f"FAIL {name}: {row['ops_per_s']:.0f} ops/s "
                  f"< floor {floor:.0f} (baseline {BASELINE_POST[name]})")
            ok = False
        else:
            print(f"ok   {name}: {row['ops_per_s']:.0f} ops/s "
                  f"(floor {floor:.0f}, {row['speedup_vs_pre']}x vs pre)")
    return ok


def main(argv: list[str]) -> int:
    results = run_all()
    write_json(results)
    print(json.dumps(results, indent=2))
    if "--check" in argv:
        return 0 if check_floor(results) else 1
    return 0


def test_kernel_microbench(run_once, emit):
    """Benchmark-suite entry point: record scores and enforce the floor."""
    results = run_once(run_all, 1)
    write_json(results)
    lines = ["Kernel event-loop microbenchmark (ops/sec)"]
    for name, row in results.items():
        lines.append(f"  {name:<14} {row['ops_per_s']:>12,} ops/s  "
                     f"wall {row['wall_s']:.3f}s  "
                     f"{row['speedup_vs_pre']}x vs pre-fast-path")
    emit("\n".join(lines))
    assert check_floor(results)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The seven workloads of the perf benchmark, every parameter a literal.

Each workload is one closed batch job: fixed input, run to completion,
single thread. ``WORKLOADS[name](seed, quick)`` performs one *iteration* —
build, then the measured phase — and returns an :class:`Iteration` holding the
host timings, the simulator (for the exact per-layer counters), the
workload's simulated results and its output checks.

Only ``repro``'s public surface is used: registered scenarios looked up
by name, ``stack_pair`` and ``ttcp_receiver``/``ttcp_transfer`` — so the
code behind that surface can be rewritten without touching this file.
``quick`` divides every size by about eight (the ``--quick``/``--selftest``
smoke mode); its numbers are not comparable with a full run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.exp.spec import get_scenario
from repro.scenarios.stacks import stack_pair

MB = 1 << 20


@dataclass
class Iteration:
    """One build + measured phase of one workload."""

    build_s: float
    wall_s: float
    sim: object
    hosts: list  # Hosts whose TCP layer the per-layer counters read
    payload: dict  # simulated outputs only; hashed into sim_digest
    sim_metrics: dict  # the workload's simulated results, exact for a seed
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


# -- ttcp over a stack pair (Fig 6 path) ---------------------------------

# HKU-SIAT: 74.2 ms RTT, 18.6 Mbps bottleneck; 2 x BDP socket buffers and
# ttcp's 16384 B write size, as benchmarks/bench_fig06_ttcp.py documents.
TTCP_RTT_S = 0.0742
TTCP_BANDWIDTH_BPS = 18.6e6
TTCP_SOCKET_BUF = 327680
TTCP_WRITE_SIZE = 16384


def _ttcp(stack: str, size_mb: int, quick_mb: int):
    def run(seed: int, quick: bool) -> Iteration:
        size = (quick_mb if quick else size_mb) * MB
        t0 = perf_counter()
        pair = stack_pair(stack, TTCP_RTT_S, TTCP_BANDWIDTH_BPS, seed=seed,
                          send_buf=TTCP_SOCKET_BUF, recv_buf=TTCP_SOCKET_BUF)
        t1 = perf_counter()
        sim = pair.sim
        rx = sim.process(ttcp_receiver(pair.host_b))
        tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b, size,
                                       buf_size=TTCP_WRITE_SIZE))
        sim.run(until=tx)
        sim.run(until=rx)
        t2 = perf_counter()
        result = tx.value
        problems = []
        if rx.value != size:
            problems.append(f"receiver drained {rx.value} of {size} bytes")
        if result.total_bytes != size or result.elapsed <= 0:
            problems.append(f"sender reported {result.total_bytes} bytes "
                            f"in {result.elapsed} s")
        payload = {"bytes": size, "received": rx.value,
                   "elapsed_s": result.elapsed, "goodput_mbps": result.rate_mbit,
                   "sim_now": sim.now}
        return Iteration(
            build_s=t1 - t0, wall_s=t2 - t1, sim=sim,
            hosts=[pair.host_a, pair.host_b], payload=payload,
            sim_metrics={"sim_goodput_mbps": result.rate_mbit},
            attempted=1, failed=1 if problems else 0, problems=problems)

    return run


# -- scenario-driven workloads -------------------------------------------

def _scenario(name: str, params: dict, quick_params: dict, summarise,
              sim_seed: int | None = None):
    """The scenario call *is* the measured phase (its internal topology
    build is < 30 ms, under 1 %), so ``build_s`` is 0. ``sim_seed`` pins
    the simulator's seed whatever ``--seed`` says."""

    def run(seed: int, quick: bool) -> Iteration:
        p = {**params, **quick_params} if quick else params
        fn = get_scenario(name)
        t0 = perf_counter()
        sim, payload = fn(seed=seed if sim_seed is None else sim_seed, **p)
        wall = perf_counter() - t0
        hosts = [d.host for d in sim.components.find(kind="driver").values()]
        it = Iteration(build_s=0.0, wall_s=wall, sim=sim, hosts=hosts,
                       payload={**payload, "sim_now": sim.now},
                       sim_metrics={}, attempted=0, failed=0)
        summarise(it, payload, p)
        return it

    return run


MICE_ELEPHANTS = dict(
    stack="wavnet", cc="reno,cubic,bbr", mice_cc="cubic", n_elephants=3,
    mice_kb=64, mice_interval=1.0, fidelity="packet", rtt_ms=200.0,
    bandwidth_mbps=1.0, duration=120.0, send_buf=32768, recv_buf=32768)
MICE_ELEPHANTS_QUICK = dict(duration=15.0)


def _mice_elephants(it, payload, p):
    mice = round(p["duration"] / p["mice_interval"])
    rates = payload["elephant_mbps"]
    it.attempted = len(rates) + mice
    it.failed = (sum(1 for r in rates if not r > 0)
                 + payload["mice_failed"]
                 + max(mice - payload["mice_done"] - payload["mice_failed"], 0))
    if it.failed:
        it.problems.append(
            f"{payload['mice_done']}/{mice} mice done, elephants {rates}")
    # The payload carries only the mean and the p95 of the mice FCTs;
    # a p90 needs the raw samples, which the scenario does not return.
    it.sim_metrics = {"sim_goodput_mbps": float(sum(rates)),
                      "sim_fct_p95_s": (payload["mice_fct_ms_p95"] or 0.0) / 1000.0}


MESH_PUNCH = dict(n_hosts=32, n_rendezvous=1, nat_type="port-restricted",
                  rtt=0.05, settle=60.0)
MESH_PUNCH_QUICK = dict(n_hosts=12, settle=20.0)


def _mesh_punch(it, payload, p):
    n = p["n_hosts"]
    it.attempted = n * (n - 1) // 2
    it.failed = it.attempted - payload["connections"] + payload["relayed"]
    if it.failed:
        it.problems.append(f"{payload['connections']}/{it.attempted} connections, "
                           f"{payload['relayed']} relayed")
    metrics = it.sim.metrics
    samples = np.concatenate([
        metrics.get(path).values
        for path in metrics.select(["*.driver.connect.punch_seconds"])])
    it.sim_metrics = {"sim_connect_p95_s": float(np.percentile(samples, 95))
                      if len(samples) else 0.0}


CHURN_REPAIR = dict(n_hosts=14, n_rendezvous=2, horizon=220.0, ping=True)
CHURN_REPAIR_QUICK = dict(n_hosts=5)


def _churn_repair(it, payload, p):
    # One operation per connection lost to liveness; it failed if no repair
    # of it succeeded by the horizon. (`repair.attempts` counts re-punches,
    # several per repair: the per-layer success ratio.)
    it.attempted = int(metric_total(it.sim, "*.driver.repair.lost"))
    it.failed = it.attempted - int(metric_total(it.sim, "*.driver.repair.success"))
    if not payload["converged"]:
        it.failed = it.attempted
        it.problems.append("mesh did not re-converge")
    if it.attempted == 0:
        it.attempted = it.failed = 1
        it.problems.append("no connection was lost, so no repair was measured")
    elif it.failed:
        it.problems.append(f"{it.failed}/{it.attempted} lost connections not repaired")
    it.sim_metrics = {"sim_repair_p50_s": statistics.median(payload["repair_seconds"])
                      if payload["repair_seconds"] else 0.0}


STORM_REGISTER = dict(
    n_endpoints=100_000, n_rendezvous=4, n_regions=8, batch=512,
    admission_rate=100_000 / 4, admission_burst=100_000 / 8,
    hot_zone_limit=100_000 // 32)
# Hot-zone shedding is chaotic in the seed: over six seeds, and over +-1 % of
# n_endpoints or of the limit under one seed, the same storm took 2.7-6.3 s
# and split 52-125 zones. One trajectory is pinned, so that runs with
# different --seed measure the same work; --seed does not reach this workload.
STORM_SIM_SEED = 7
STORM_REGISTER_QUICK = dict(
    n_endpoints=12_500, admission_rate=12_500 / 4, admission_burst=12_500 / 8,
    hot_zone_limit=12_500 // 32)


def _storm_register(it, payload, p):
    n, outage = p["n_endpoints"], payload["outage_endpoints"]
    it.attempted = n + outage
    it.failed = (n - payload["filled"]) + (outage - payload["reconnected"])
    if it.failed:
        it.problems.append(f"filled {payload['filled']}/{n}, "
                           f"reconnected {payload['reconnected']}/{outage}")
    it.sim_metrics = {"sim_register_ops_per_s": payload["fill_ops_per_sec"]}


FLUID_FANOUT = dict(fidelity="fluid", n_flows=80_000, flow_kb=64, n_pairs=10,
                    bandwidth_mbps=1000.0, rtt_ms=20.0)
FLUID_FANOUT_QUICK = dict(n_flows=10_000)


def _fluid_fanout(it, payload, p):
    it.attempted = p["n_flows"]
    it.failed = it.attempted - payload["completed"]
    if it.failed:
        it.problems.append(f"{payload['completed']}/{it.attempted} flows completed")
    it.sim_metrics = {"sim_goodput_mbps": payload["goodput_mbps"]}


def metric_total(sim, pattern: str) -> float:
    """Sum of every registry metric whose dotted path matches ``pattern``."""
    return sum(sim.metrics.value(path) for path in sim.metrics.select([pattern]))


WORKLOADS = {
    "ttcp_wavnet": _ttcp("wavnet", size_mb=16, quick_mb=2),
    "ttcp_physical": _ttcp("physical", size_mb=64, quick_mb=8),
    "mice_elephants": _scenario("fairness_mix", MICE_ELEPHANTS,
                                MICE_ELEPHANTS_QUICK, _mice_elephants),
    "mesh_punch": _scenario("wavnet_mesh", MESH_PUNCH, MESH_PUNCH_QUICK,
                            _mesh_punch),
    "churn_repair": _scenario("churn_recovery", CHURN_REPAIR, CHURN_REPAIR_QUICK,
                              _churn_repair),
    "storm_register": _scenario("registration_storm", STORM_REGISTER,
                                STORM_REGISTER_QUICK, _storm_register,
                                sim_seed=STORM_SIM_SEED),
    "fluid_fanout": _scenario("fluid_fanout", FLUID_FANOUT, FLUID_FANOUT_QUICK,
                              _fluid_fanout),
}

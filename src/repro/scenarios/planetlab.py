"""Synthetic PlanetLab-like latency matrices (Figs 12-14).

The paper measures ~80 000 host pairs over 400 PlanetLab hosts. We
cannot reach PlanetLab (retired), so we generate matrices with the same
structure its published measurements show:

* two-level locality — hosts cluster into *sites* (sub-millisecond to a
  few ms apart) inside *regions* (tens of ms), with inter-region RTTs
  from ~60 to ~350 ms;
* symmetry (the paper's Eq. 2) by construction;
* approximate transitivity (Eq. 3) because latencies derive from region
  coordinates;
* a heavy tail: a small fraction of pathological pairs reaching seconds
  (the up-to-10 s outliers of Fig 12a).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.latency import LatencyMatrix
from repro.exp.spec import scenario

__all__ = ["planetlab_grouping", "planetlab_latency_matrix", "planetlab_nas"]

N_REGIONS = 12
SITE_SIZE_RANGE = (2, 8)


def planetlab_latency_matrix(
    n_hosts: int = 400,
    seed: int = 0,
    outlier_fraction: float = 0.012,
    jitter_sigma: float = 0.18,
) -> LatencyMatrix:
    """Generate a symmetric n x n RTT matrix (seconds)."""
    rng = np.random.default_rng(seed)
    # Regions on a ring: inter-region base RTT from angular distance.
    region_angle = rng.uniform(0, 2 * np.pi, size=N_REGIONS)
    region_weight = rng.dirichlet(np.ones(N_REGIONS) * 2.0)

    # Assign hosts to sites inside regions.
    host_region = np.empty(n_hosts, dtype=int)
    host_site = np.empty(n_hosts, dtype=int)
    site_counter = 0
    i = 0
    while i < n_hosts:
        region = int(rng.choice(N_REGIONS, p=region_weight))
        size = int(rng.integers(SITE_SIZE_RANGE[0], SITE_SIZE_RANGE[1] + 1))
        size = min(size, n_hosts - i)
        host_region[i:i + size] = region
        host_site[i:i + size] = site_counter
        site_counter += 1
        i += size

    # Base distances.
    ang = region_angle[host_region]
    dtheta = np.abs(ang[:, None] - ang[None, :])
    dtheta = np.minimum(dtheta, 2 * np.pi - dtheta)
    inter_base = 0.060 + 0.290 * dtheta / np.pi          # 60..350 ms
    same_region = host_region[:, None] == host_region[None, :]
    same_site = host_site[:, None] == host_site[None, :]
    base = np.where(same_site, rng.uniform(0.0004, 0.004),
                    np.where(same_region, rng.uniform(0.008, 0.055), inter_base))

    # Symmetric multiplicative jitter.
    jitter = rng.lognormal(mean=0.0, sigma=jitter_sigma, size=(n_hosts, n_hosts))
    m = base * jitter
    m = (m + m.T) / 2.0

    # Heavy tail: *overloaded hosts* (Fig 12a's seconds-scale outliers).
    # On PlanetLab the pathological latencies cluster on specific loaded
    # nodes — every pair touching such a node is slow — rather than on
    # random pairs. This is what lets the grouping algorithm (Fig 13)
    # find large outlier-free clusters by simply avoiding those hosts.
    n_bad = max(int(outlier_fraction * n_hosts * 4), 1)
    bad_hosts = rng.choice(n_hosts, size=n_bad, replace=False)
    for host in bad_hosts:
        mult = 1.0 + float(rng.lognormal(mean=3.0, sigma=0.9))  # x5 .. x200
        m[host, :] = np.minimum(m[host, :] * mult, 10.0)
        m[:, host] = m[host, :]

    np.fill_diagonal(m, 0.0)
    names = [f"pl{i:03d}" for i in range(n_hosts)]
    return LatencyMatrix.from_array(names, m)


# Fig 12's summary of a matrix's host pairs: these percentiles, and
# pair counts per latency bucket (edges in ms).
PAIR_PERCENTILES = [1, 5, 25, 50, 75, 90, 99, 99.9]
PAIR_BUCKETS_MS = [0, 1, 10, 100, 1000, 10001]


def _pairs_ms(lm: LatencyMatrix) -> dict:
    ms = lm.m[np.triu_indices(len(lm), k=1)] * 1000
    return {"count": int(ms.size), "min": float(ms.min()), "max": float(ms.max()),
            "percentiles": [float(np.percentile(ms, p)) for p in PAIR_PERCENTILES],
            "buckets": [int(((ms >= a) & (ms < b)).sum())
                        for a, b in zip(PAIR_BUCKETS_MS, PAIR_BUCKETS_MS[1:])]}


@scenario("planetlab_grouping")
def planetlab_grouping(seed: int = 0, problems: tuple = ((200, 0, 8, ("ls", "random")),),
                       draws: int = 1, max_latency: float | None = 0.2):
    """Cluster selection on PlanetLab-like matrices (Figs 12-13, the
    grouping ablation). Each problem ``[n_hosts, matrix_seed, k,
    algorithms]`` runs its algorithms in order — ``"ls"`` (locality-
    sensitive, filtering groups with a pair over ``max_latency``),
    ``"brute"``, ``"greedy"``, ``"random"`` — timing each; a random group
    is the median over ``draws`` draws from one stream seeded by ``seed``
    and shared by every problem. ``pairs_ms`` summarizes the first
    problem's matrix. A pure-numpy scenario (payload only)."""
    from repro.core.grouping import (
        brute_force_group,
        greedy_group,
        locality_sensitive_group,
        random_group,
    )

    rng = np.random.default_rng(seed)
    matrices: dict = {}
    solve = {
        "ls": lambda lm, k: [locality_sensitive_group(lm, k, max_latency=max_latency,
                                                      fallback=True)],
        "brute": lambda lm, k: [brute_force_group(lm, k)],
        "greedy": lambda lm, k: [greedy_group(lm, k)],
        "random": lambda lm, k: [random_group(lm, k, rng) for _ in range(draws)],
    }
    results = []
    for n_hosts, matrix_seed, k, algorithms in problems:
        key = (n_hosts, matrix_seed)
        if key not in matrices:
            matrices[key] = planetlab_latency_matrix(n_hosts, seed=matrix_seed)
        row: dict = {"n_hosts": n_hosts, "k": k}
        for name in algorithms:
            t0 = perf_counter()
            groups = solve[name](matrices[key], k)
            wall = perf_counter() - t0
            row[name] = {"avg_s": float(np.median([g.average_latency for g in groups])),
                         "max_s": float(np.median([g.max_latency for g in groups])),
                         "candidates": groups[0].candidates_examined, "wall_s": wall}
        results.append(row)
    first = problems[0]
    return {"pairs_ms": _pairs_ms(matrices[(first[0], first[1])]), "problems": results}


# Fig 14's NAS kernels: EP samples per class; FT grids scaled down from
# the NAS classes with iteration counts scaled up, keeping the kernel
# latency-dominated (many all-to-all rounds of modest size) as the
# paper's WAN runs were.
NAS_EP_SAMPLES = {"A": 2**26, "B": 2**28}
NAS_FT_GRIDS = {"A": ((32, 32, 32), 24), "B": ((32, 32, 32), 48)}


@scenario("planetlab_nas")
def planetlab_nas(seed: int = 7):
    """NAS EP and FT on a locality-sensitive cluster against a random one
    (Fig 14), for 4 and 8 hosts of the 400-host matrix (seed 12). The
    random clusters are drawn, in size order, from ``seed``'s stream out
    of the 64 hosts the locality-sensitive method pre-selects. Each job
    runs in its own simulation on public hosts whose pairwise RTTs are
    the matrix entries; ``rows`` are ``[case, hosts, random s, locality s]``."""
    from repro.apps.mpi import MpiJob, ep_program, ft_program
    from repro.core.grouping import locality_sensitive_group
    from repro.net.addresses import IPv4Address
    from repro.net.wan import WanCloud
    from repro.scenarios.builder import make_public_host
    from repro.sim.engine import Simulator

    lm = planetlab_latency_matrix(400, seed=12)

    def run_job(members, program, sim_seed):
        sim = Simulator(seed=sim_seed)
        cloud = WanCloud(sim, default_latency=0.050)
        hosts = [make_public_host(sim, cloud, f"n{i}", f"8.9.0.{i + 1}",
                                  network="8.9.0.0/24", tcp_mss=8192,
                                  access_bandwidth_bps=50e6)
                 for i in range(len(members))]
        for i, a in enumerate(members):
            for j, b in enumerate(members[i + 1:], start=i + 1):
                cloud.set_rtt(f"n{i}", f"n{j}", float(lm.m[a, b]))
        ips = [IPv4Address(f"8.9.0.{i + 1}") for i in range(len(members))]
        return sim.run_coro(MpiJob(hosts, ips, program, base_flops=2e9).run())

    kernels = [(f"EP({cls})", ep_program, (samples,))
               for cls, samples in NAS_EP_SAMPLES.items()]
    kernels += [(f"FT({cls})", ft_program, spec) for cls, spec in NAS_FT_GRIDS.items()]
    candidates = list(locality_sensitive_group(lm, 64).members)
    rng = np.random.default_rng(seed)
    rows = []
    for n_hosts in (4, 8):
        good = list(locality_sensitive_group(lm, n_hosts).members)
        rand = list(rng.choice(candidates, size=n_hosts, replace=False))
        for case, program, args in kernels:
            rows.append([case, n_hosts, run_job(rand, program(*args), 100 + n_hosts),
                         run_job(good, program(*args), 200 + n_hosts)])
    return {"rows": rows}

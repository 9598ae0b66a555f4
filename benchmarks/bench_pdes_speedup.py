"""PDES benchmark: serial vs site-partitioned execution of a single
simulation, with a byte-identity proof.

Runs ``pdes_mesh`` — the fig08-style 4-site tunnel mesh, netperf streams
crossing every partition boundary — twice: serially via ``run_spec`` and
split over ``min(4, visible CPUs)`` partition processes via
``run_partitioned``, and records both wall clocks.

The merged partitioned envelope MUST be byte-identical to the serial
one; that is the only thing the check enforces. The speed-up is
reported next to ``cpus_visible`` and carries no floor: the plane is
kept as the serial-vs-partitioned identity oracle, not as a way to go
faster (0.74-0.94x with 2 partitions on 2 cores, see DESIGN section 14).

The ``pdes`` case of ``benchmarks/gates.py`` (one size).
"""

from __future__ import annotations

import hashlib
import os
from time import perf_counter

from repro.exp.spec import ExperimentSpec, envelope_bytes, run_spec
from repro.sim.pdes import run_partitioned

SCENARIO = "pdes_mesh"
PARAMS = {"n_sites": 4, "hosts_per_site": 1, "duration": 6.0}
SEED = 5


def run(quick: bool) -> dict:
    cpus = len(os.sched_getaffinity(0))
    partitions = min(4, cpus)
    params = {"partitions": partitions, **PARAMS}
    spec = ExperimentSpec(SCENARIO, params=params, seed=SEED)
    t0 = perf_counter()
    serial = run_spec(spec)
    serial_wall = perf_counter() - t0
    t0 = perf_counter()
    part = run_partitioned(spec)
    part_wall = perf_counter() - t0
    serial_bytes = envelope_bytes(serial)
    part_bytes = envelope_bytes(part)
    return {
        "cpus_visible": cpus,
        "scenario": SCENARIO,
        "params": params,
        "events": serial["obs"]["events_dispatched"],
        "serial_wall_s": round(serial_wall, 3),
        "partitions": partitions,
        "partitioned_wall_s": round(part_wall, 3),
        "speedup": round(serial_wall / part_wall, 3),
        "byte_identical": serial_bytes == part_bytes,
        "envelope_sha256": hashlib.sha256(serial_bytes).hexdigest(),
        "partitioned_envelope_sha256":
            hashlib.sha256(part_bytes).hexdigest(),
    }


def render(results: dict) -> str:
    return (f"PDES single-run partitioning, "
            f"{results['cpus_visible']} CPU(s) visible\n"
            f"  {results['scenario']:<16} "
            f"serial {results['serial_wall_s']:7.2f}s   "
            f"{results['partitions']} partitions "
            f"{results['partitioned_wall_s']:7.2f}s   "
            f"speedup {results['speedup']:.2f}x   "
            f"byte-identical: {results['byte_identical']}")


def check(results: dict) -> list[str]:
    if not results["byte_identical"]:
        return [f"{results['scenario']} partitioned envelope differs "
                "from serial"]
    return []

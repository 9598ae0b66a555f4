"""Sweep-runner benchmark: serial vs sharded execution of the 8-seed
churn sweep, with a byte-identity proof.

Runs the catalog's ``churn8`` sweep twice — ``workers=1`` and
``workers=min(4, visible CPUs)`` — and records both wall clocks along
with the canonical envelope bytes' digests. The simulations are
deterministic and independent, so the sharded result MUST be
byte-identical to the serial one (always enforced). A 1.2x speed-up
floor is enforced whenever at least 2 CPUs are visible: on 2 cores a
cold first fork measured 1.19-1.26x and warm runs 1.69-1.90x (median
1.81x of six alternating pairs), so one untimed sharded run warms the
box first; a single-core container cannot speed anything up by forking.

The ``sweep`` case of ``benchmarks/gates.py`` (one size).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import tempfile
from time import perf_counter

from repro.exp import SweepRunner, get_sweep

SPEEDUP_FLOOR = 1.2
MIN_CPUS_FOR_FLOOR = 2


def _timed_run(workers: int, out_dir: pathlib.Path):
    runner = SweepRunner(get_sweep("churn8"), workers=workers,
                         out_dir=out_dir, force=True)
    t0 = perf_counter()
    result = runner.run()
    return perf_counter() - t0, result


def run(quick: bool) -> dict:
    cpus = len(os.sched_getaffinity(0))
    workers = min(4, cpus)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as td:
        tmp = pathlib.Path(td)
        # Untimed: the first multi-process work after a single-core
        # stretch pays ~0.5 s of wake-up, a third of the sharded run.
        _timed_run(workers, tmp / "warm")
        serial_wall, serial = _timed_run(1, tmp / "serial")
        parallel_wall, parallel = _timed_run(workers, tmp / "parallel")
    serial_bytes = serial.result_bytes()
    parallel_bytes = parallel.result_bytes()
    return {
        "sweep": "churn8",
        "points": len(serial),
        "cpus_visible": cpus,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_workers": workers,
        "parallel_wall_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / parallel_wall, 3),
        "byte_identical": serial_bytes == parallel_bytes,
        "envelopes_sha256": hashlib.sha256(serial_bytes).hexdigest(),
        "parallel_envelopes_sha256":
            hashlib.sha256(parallel_bytes).hexdigest(),
    }


def render(results: dict) -> str:
    return (f"Sweep runner: {results['sweep']} ({results['points']} points), "
            f"{results['cpus_visible']} CPU(s) visible\n"
            f"  serial        {results['serial_wall_s']:7.2f}s\n"
            f"  {results['parallel_workers']} workers     "
            f"{results['parallel_wall_s']:7.2f}s   "
            f"speedup {results['speedup']:.2f}x\n"
            f"  byte-identical envelopes: {results['byte_identical']}")


def check(results: dict) -> list[str]:
    failures = []
    if not results["byte_identical"]:
        failures.append("sharded envelopes differ from serial")
    if (results["cpus_visible"] >= MIN_CPUS_FOR_FLOOR
            and results["speedup"] < SPEEDUP_FLOOR):
        failures.append(f"speedup {results['speedup']:.2f}x below "
                        f"{SPEEDUP_FLOOR}x floor on "
                        f"{results['cpus_visible']} CPUs")
    return failures

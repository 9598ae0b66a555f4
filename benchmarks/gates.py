"""The gate runner: every claim the repo holds beyond tier-1, as one command.

    python benchmarks/gates.py [--quick] [--list] [case ...]

A case is a module with three functions: ``run(quick) -> payload``,
``check(payload) -> list of failure strings`` and ``render(payload) ->
str``. Every run is written as one record ``{case, commit, nproc,
host_score, quick, wall_s, payload}`` (``commit`` ends in ``+dirty``
when tracked files differ from it): a full-size run to
``BENCH_<case>.json`` at the repo root, a ``--quick`` run to the
git-ignored ``benchmarks/out/gates/``, never over a committed record.
The exit status is non-zero when any case's check reports a failure or
its run raises; the remaining cases still run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perf.run import context  # noqa: E402

# In run order.
CASES = {
    "churn": "bench_churn_recovery",
    "sweep": "bench_sweep_parallel",
    "fluid_agreement": "bench_fluid_agreement",
    "fluid_scale": "bench_fluid_scale",
    "scale": "bench_scale_endpoints",
    "fairness": "bench_fairness",
    "traversal": "bench_traversal",
}


def stamp(commit: str, root: Path) -> str:
    """``commit``, marked ``+dirty`` when a tracked file under ``root``
    differs from it: a record made before committing is not the commit's."""
    try:
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True).stdout
    except OSError:
        status = ""
    return f"{commit}+dirty" if status.strip() else commit


def main(argv=None, cases=CASES, root: Path = ROOT) -> int:
    """``cases`` maps a name to a case or to the module that holds it."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI sizes; records go to benchmarks/out/gates/")
    ap.add_argument("--list", action="store_true", help="print the case names")
    ap.add_argument("case", nargs="*", help="cases to run (default: all)")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(cases))
        return 0
    names = args.case or list(cases)
    unknown = [name for name in names if name not in cases]
    if unknown:
        ap.error(f"unknown case(s) {unknown}; known: {list(cases)}")

    ctx = context()
    commit = stamp(ctx["commit"], root)
    out_dir = root / "benchmarks" / "out" / "gates" if args.quick else root
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in names:
        print(f"=== {name} ===", flush=True)
        t0 = perf_counter()
        try:
            case = cases[name]
            if isinstance(case, str):
                case = importlib.import_module(case)
            payload = case.run(args.quick)
            record = {"case": name, "commit": commit,
                      "nproc": ctx["nproc"], "host_score": ctx["host_score"],
                      "quick": args.quick,
                      "wall_s": round(perf_counter() - t0, 3),
                      "payload": payload}
            (out_dir / f"BENCH_{name}.json").write_text(
                json.dumps(record, indent=2) + "\n")
            print(case.render(payload))
            failures = case.check(payload)
        except Exception:  # one broken case must not hide the others
            traceback.print_exc()
            failures = ["raised (traceback above)"]
        for failure in failures:
            print(f"FAIL {name}: {failure}")
        if failures:
            failed.append(name)
        else:
            print(f"ok {name} ({perf_counter() - t0:.1f}s)")
    print(f"{len(failed)} of {len(names)} gates failed"
          + (f": {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

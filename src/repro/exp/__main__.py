"""CLI for the experiment plane.

Usage::

    python -m repro.exp list
    python -m repro.exp run <sweep> [<sweep> ...] [--workers N] [--out DIR] [--force]

``run`` executes named sweeps from :mod:`repro.exp.catalog` one after
another, each sharded over ``--workers`` processes, streaming one line
per point, and leaves the artifacts under ``<out>/<name>/`` (default
``benchmarks/out/sweeps/<name>/``; resumable: re-running skips cached
points unless ``--force``). A failed sweep does not stop the ones after
it; the exit status is 1 if any failed, 2 for an unknown name.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp.catalog import SWEEPS, get_sweep, sweep_names
from repro.exp.runner import SweepError, SweepRunner


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sweep_names():
        sweep = SWEEPS[name]()
        doc = (SWEEPS[name].__doc__ or "").strip().split("\n")[0]
        print(f"{name:26s} {len(sweep):3d} points  {sweep.scenario:19s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sweeps = [get_sweep(name) for name in args.sweeps]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    failed = 0
    for sweep in sweeps:
        failed += _run_one(sweep, args)
    return 1 if failed else 0


def _run_one(sweep, args: argparse.Namespace) -> int:
    def progress(result) -> None:
        tag = "cached" if result.cached else f"{result.wall_seconds:6.2f}s"
        coords = " ".join(f"{k}={v}" for k, v in result.coords.items())
        print(f"  [{result.index + 1}/{len(sweep)}] {tag:>8s}  {coords}")

    out = Path(args.out) / sweep.name if args.out else None
    runner = SweepRunner(sweep, workers=args.workers, out_dir=out,
                         force=args.force, progress=progress)
    print(f"sweep {sweep.name!r}: {len(sweep)} points, "
          f"workers={args.workers}, out={runner.out_dir}")
    try:
        result = runner.run()
    except SweepError as exc:
        for index, err in sorted(exc.failures.items()):
            print(f"point {index} failed:\n{err}", file=sys.stderr)
        return 1
    executed = len(result.executed_indices)
    cached = len(result.cached_indices)
    wall = sum(r.wall_seconds for r in result)
    print(f"done: {executed} executed, {cached} cached, "
          f"{wall:.2f}s simulated-run wall time")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Run parameter sweeps over registered scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list named sweeps").set_defaults(
        func=_cmd_list)

    run = sub.add_parser("run", help="run named sweeps, one after another")
    run.add_argument("sweeps", nargs="+", metavar="sweep",
                     help="sweep name (see `list`)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1 = serial)")
    run.add_argument("--out", default=None,
                     help="artifact root, one directory per sweep "
                          "(default benchmarks/out/sweeps)")
    run.add_argument("--force", action="store_true",
                     help="re-run every point, ignoring cached artifacts")
    run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

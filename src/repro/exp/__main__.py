"""CLI for the experiment plane.

Usage::

    python -m repro.exp list
    python -m repro.exp run <sweep> [<sweep> ...] [--workers N] [--out DIR] [--force]

``run`` executes named sweeps from :mod:`repro.exp.catalog` together:
the pending points of all of them go to one pool of ``--workers``
processes, one line is printed per point as it finishes, and the
artifacts land under ``<out>/<name>/`` (default
``benchmarks/out/sweeps/<name>/``; resumable: re-running skips cached
points unless ``--force``). A failed point does not stop the others;
the exit status is 1 if any failed, 2 for an unknown name.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp.catalog import SWEEPS, get_sweep, sweep_names
from repro.exp.runner import SweepError, SweepRunner, run_sweeps


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sweep_names():
        sweep = SWEEPS[name]()
        doc = (SWEEPS[name].__doc__ or "").strip().split("\n")[0]
        print(f"{name:26s} {len(sweep):3d} points  {sweep.scenario:19s} {doc}")
    return 0


def _printer(sweep):
    def progress(result) -> None:
        tag = "cached" if result.cached else f"{result.wall_seconds:6.2f}s"
        coords = " ".join(f"{k}={v}" for k, v in result.coords.items())
        print(f"  {sweep.name} [{result.index + 1}/{len(sweep)}] {tag:>8s}  {coords}")
    return progress


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        sweeps = [get_sweep(name) for name in args.sweeps]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    runners = [SweepRunner(sweep, workers=args.workers, force=args.force,
                           out_dir=Path(args.out) / sweep.name if args.out else None,
                           progress=_printer(sweep)) for sweep in sweeps]
    for runner in runners:
        print(f"sweep {runner.sweep.name!r}: {len(runner.sweep)} points, "
              f"workers={args.workers}, out={runner.out_dir}")
    failed = 0
    for runner, outcome in zip(runners, run_sweeps(runners)):
        name = runner.sweep.name
        if isinstance(outcome, SweepError):
            failed += 1
            for index, err in sorted(outcome.failures.items()):
                print(f"{name} point {index} failed:\n{err}", file=sys.stderr)
            continue
        executed = len(outcome.executed_indices)
        cached = len(outcome.cached_indices)
        wall = sum(r.wall_seconds for r in outcome)
        print(f"{name} done: {executed} executed, {cached} cached, "
              f"{wall:.2f}s simulated-run wall time")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Run parameter sweeps over registered scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list named sweeps").set_defaults(
        func=_cmd_list)

    run = sub.add_parser("run", help="run named sweeps on one worker pool")
    run.add_argument("sweeps", nargs="+", metavar="sweep",
                     help="sweep name (see `list`)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1 = in-process)")
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

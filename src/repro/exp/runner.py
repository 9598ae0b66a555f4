"""Sweep execution: in-process or on one pool of worker processes, with
an on-disk artifact store and resume-from-cache.

Layout of the artifact store (``benchmarks/out/sweeps/<name>/`` by
default)::

    manifest.json            # sweep description + point keys
    p0000-<hash>.json        # one result envelope per completed point
    p0001-<hash>.json
    ...

A point's artifact name embeds a content hash of its canonical spec, so
editing a sweep invalidates exactly the points whose specs changed; the
artifact also records a digest of the ``repro`` source that wrote it, so
a code change invalidates every point. Completed points are skipped on
re-run (resume) unless ``force=True``.

:func:`run_sweeps` takes the pending points of every sweep it is given:
with ``workers == 1`` it runs them in-process, else it submits them all
to one ``ProcessPoolExecutor``, whose workers run
:func:`repro.exp.spec.run_spec` and store each artifact the moment it
completes. Simulations are deterministic and independent, so the pooled
result is byte-identical to the in-process one (``envelope_bytes``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.exp.spec import ExperimentSpec, envelope_bytes, run_spec
from repro.exp.sweep import Sweep, SweepPoint

__all__ = ["PointResult", "SweepError", "SweepResult", "SweepRunner",
           "default_sweep_root", "run_sweeps"]


def default_sweep_root() -> pathlib.Path:
    """``$REPRO_SWEEP_DIR`` if set; else ``benchmarks/out/sweeps`` next
    to this source tree; else ``./sweeps``."""
    env = os.environ.get("REPRO_SWEEP_DIR")
    if env:
        return pathlib.Path(env)
    repo = pathlib.Path(__file__).resolve().parents[3]
    if (repo / "benchmarks").is_dir():
        return repo / "benchmarks" / "out" / "sweeps"
    return pathlib.Path.cwd() / "sweeps"


class SweepError(RuntimeError):
    """One or more sweep points failed; carries per-point errors."""

    def __init__(self, failures: dict[int, str]) -> None:
        self.failures = failures
        lines = "\n".join(f"  point {i}: {err.splitlines()[-1]}"
                          for i, err in sorted(failures.items()))
        super().__init__(f"{len(failures)} sweep point(s) failed:\n{lines}")


@dataclass
class PointResult:
    """One completed point: its envelope plus execution bookkeeping."""

    index: int
    coords: dict
    envelope: dict
    cached: bool

    @property
    def payload(self) -> dict:
        return self.envelope["payload"]

    @property
    def wall_seconds(self) -> float:
        return self.envelope["wall_seconds"]

    def envelope_bytes(self) -> bytes:
        return envelope_bytes(self.envelope)


@dataclass
class SweepResult:
    """All point results of one sweep, in point order."""

    sweep: Sweep
    points: list[PointResult]

    @property
    def payloads(self) -> list[dict]:
        return [p.payload for p in self.points]

    @property
    def cached_indices(self) -> list[int]:
        return [p.index for p in self.points if p.cached]

    @property
    def executed_indices(self) -> list[int]:
        return [p.index for p in self.points if not p.cached]

    def result_bytes(self) -> bytes:
        """Canonical bytes of every envelope, for byte-identity checks."""
        return b"\n".join(p.envelope_bytes() for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@functools.cache
def _source_digest() -> str:
    """sha256 over the ``repro`` package's ``.py`` files (sorted paths and
    bytes), computed once per process on first use: an artifact that
    other source wrote is stale even when its spec matches."""
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run_point(spec: ExperimentSpec, out_dir: str, key: str) -> dict:
    """Run one point and store its artifact (the envelope plus the source
    digest) the moment it completes, so a crashed run resumes from what
    finished. Runs in-process or in a pool worker."""
    envelope = run_spec(spec)
    _write_artifact(pathlib.Path(out_dir), key,
                    {**envelope, "source": _source_digest()})
    return envelope


def _write_artifact(out_dir: pathlib.Path, key: str, envelope: dict) -> None:
    """Atomic write: a crashed worker never leaves a half-written
    artifact for resume to trip over."""
    path = out_dir / f"{key}.json"
    tmp = out_dir / f".{key}.json.tmp.{os.getpid()}"
    tmp.write_text(json.dumps(envelope, indent=1) + "\n")
    tmp.replace(path)


class SweepRunner:
    """Executes a :class:`Sweep` in-process or on a process pool.

    * ``workers`` — 1 runs in-process; N > 1 runs the pending points on
      a pool of N worker processes.
    * ``force``   — re-execute everything; by default completed
      artifacts whose spec and source digest match are reused (resume).
    * ``out_dir`` — artifact store; default
      ``benchmarks/out/sweeps/<sweep.name>``.
    """

    def __init__(self, sweep: Sweep, workers: int = 1,
                 out_dir: Optional[pathlib.Path] = None, force: bool = False,
                 progress: Optional[Callable[["PointResult"], None]] = None,
                 ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.sweep = sweep
        self.workers = workers
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None \
            else default_sweep_root() / sweep.name
        self.force = force
        self._progress = progress or (lambda _result: None)

    # -- cache ----------------------------------------------------------
    def _load_cached(self, point: SweepPoint) -> Optional[dict]:
        path = self.out_dir / f"{point.key}.json"
        if not path.is_file():
            return None
        try:
            envelope = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if envelope.pop("source", None) != _source_digest():
            return None  # written by other code
        # The key hash already pins the spec, but verify: a truncated
        # hash collision or hand-edited artifact must not poison a run.
        if envelope.get("spec") != point.spec.canonical():
            return None
        return envelope

    def _write_manifest(self, points: list[SweepPoint]) -> None:
        manifest = dict(self.sweep.describe())
        manifest["points"] = [
            {"index": p.index, "key": p.key, "coords": p.coords}
            for p in points
        ]
        _write_artifact(self.out_dir, "manifest",
                        manifest)  # manifest.json, atomically

    # -- execution ------------------------------------------------------
    def run(self) -> SweepResult:
        """Run the pending points; raise :class:`SweepError` if any failed."""
        (outcome,) = run_sweeps([self])
        if isinstance(outcome, SweepError):
            raise outcome
        return outcome


def _outcomes(jobs: list, workers: int):
    """Yield ``((runner, point), envelope or the exception it raised)``
    per job: in job order and in-process with one worker, else in
    completion order from one process pool."""
    if workers == 1 or not jobs:
        for runner, point in jobs:
            try:
                outcome = _run_point(point.spec, str(runner.out_dir), point.key)
            except Exception as exc:  # noqa: BLE001 - recorded per point
                outcome = exc
            yield (runner, point), outcome
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed

    # Fork when available (cheap, inherits sys.path); spawn works too:
    # specs are picklable and workers resolve scenarios by name.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ProcessPoolExecutor(min(workers, len(jobs)), mp_context=ctx) as pool:
        futures = {pool.submit(_run_point, point.spec, str(runner.out_dir),
                               point.key): (runner, point)
                   for runner, point in jobs}
        for future in as_completed(futures):
            # The point's own error, or BrokenProcessPool if a worker died.
            yield futures[future], future.exception() or future.result()


def run_sweeps(runners: list["SweepRunner"]) -> list:
    """Run every runner's sweep, the pending points of all of them on one
    pool of the largest ``workers`` among them (1 = in-process, in point
    order: the byte-identity reference).

    Returns, per runner, its :class:`SweepResult`, or a
    :class:`SweepError` naming the points that failed; a failed point
    never stops the others.
    """
    workers = max(runner.workers for runner in runners)
    grids = {runner: runner.sweep.points() for runner in runners}
    done: dict = {runner: {} for runner in runners}
    failed: dict = {runner: {} for runner in runners}
    jobs = []
    for runner, points in grids.items():
        runner.out_dir.mkdir(parents=True, exist_ok=True)
        runner._write_manifest(points)
        for point in points:
            cached = None if runner.force else runner._load_cached(point)
            if cached is None:
                jobs.append((runner, point))
            else:
                done[runner][point.index] = result = PointResult(
                    point.index, point.coords, cached, cached=True)
                runner._progress(result)

    for (runner, point), outcome in _outcomes(jobs, workers):
        if isinstance(outcome, Exception):
            import traceback
            failed[runner][point.index] = "".join(
                traceback.format_exception(outcome))
            continue
        done[runner][point.index] = result = PointResult(
            point.index, point.coords, outcome, cached=False)
        runner._progress(result)

    return [SweepError(failed[runner]) if failed[runner] else
            SweepResult(runner.sweep, [done[runner][p.index] for p in points])
            for runner, points in grids.items()]

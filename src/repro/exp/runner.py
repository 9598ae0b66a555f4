"""Sweep execution: serial or sharded over worker processes, with an
on-disk artifact store and resume-from-cache.

Layout of the artifact store (``benchmarks/out/sweeps/<name>/`` by
default)::

    manifest.json            # sweep description + point keys
    p0000-<hash>.json        # one result envelope per completed point
    p0001-<hash>.json
    ...

A point's artifact name embeds a content hash of its canonical spec, so
editing a sweep invalidates exactly the points whose specs changed;
completed points are skipped on re-run (resume) unless ``force=True``.

With ``workers > 1`` the pending points are dealt round-robin into one
shard per worker; each worker process runs its specs with
:func:`repro.exp.spec.run_spec`, writes every envelope to the store the
moment it completes (so a crashed sweep resumes from what finished),
and streams the envelope back to the parent over a queue. Simulations
are deterministic and independent, so the sharded result is
byte-identical to the serial one (``envelope_bytes``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
from dataclasses import dataclass
from queue import Empty
from time import perf_counter
from typing import Callable, Optional

from repro.exp.spec import ExperimentSpec, envelope_bytes, run_spec
from repro.exp.sweep import Sweep, SweepPoint

__all__ = ["PointResult", "SweepError", "SweepResult", "SweepRunner",
           "default_sweep_root", "run_sweep"]


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


class SweepResult:
    """All point results of one runner invocation, in point order."""

    def __init__(self, sweep: Sweep, points: list[PointResult],
                 wall_seconds: float, workers: int) -> None:
        self.sweep = sweep
        self.points = points
        self.wall_seconds = wall_seconds
        self.workers = workers

    @property
    def envelopes(self) -> list[dict]:
        return [p.envelope for p in self.points]

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

    def __repr__(self) -> str:
        return (f"SweepResult({self.sweep.name!r}, n={len(self.points)}, "
                f"cached={len(self.cached_indices)}, "
                f"wall={self.wall_seconds:.2f}s, workers={self.workers})")


def _shard_worker(shard: list, out_dir: str, queue) -> None:
    """Worker-process entry point: run each (index, spec) of the shard,
    persist the envelope, stream it back. Errors are reported per point
    so one bad spec does not sink the shard."""
    for index, spec in shard:
        try:
            envelope = run_spec(spec)
            _write_artifact(pathlib.Path(out_dir), _point_key(index, spec),
                            envelope)
            queue.put((index, envelope, None))
        except BaseException as exc:  # noqa: BLE001 - crosses process boundary
            import traceback
            queue.put((index, None,
                       f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))


def _point_key(index: int, spec: ExperimentSpec) -> str:
    return f"p{index:04d}-{spec.digest()}"


def _write_artifact(out_dir: pathlib.Path, key: str, envelope: dict) -> None:
    """Atomic write: a crashed worker never leaves a half-written
    artifact for resume to trip over."""
    path = out_dir / f"{key}.json"
    tmp = out_dir / f".{key}.json.tmp.{os.getpid()}"
    tmp.write_text(json.dumps(envelope, indent=1) + "\n")
    tmp.replace(path)


class SweepRunner:
    """Executes a :class:`Sweep` serially or sharded over processes.

    * ``workers`` — 1 runs in-process; N > 1 forks N worker processes,
      each owning a round-robin shard of the pending points.
    * ``force``   — re-execute everything; by default completed
      artifacts whose spec hash matches are reused (resume).
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
        t0 = perf_counter()
        points = self.sweep.points()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest(points)

        results: dict[int, PointResult] = {}
        pending: list[SweepPoint] = []
        for point in points:
            cached = None if self.force else self._load_cached(point)
            if cached is not None:
                result = PointResult(point.index, point.coords, cached,
                                     cached=True)
                results[point.index] = result
                self._progress(result)
            else:
                pending.append(point)

        if pending:
            if self.workers == 1:
                self._run_serial(pending, results)
            else:
                self._run_sharded(pending, results)

        ordered = [results[p.index] for p in points]
        return SweepResult(self.sweep, ordered,
                           wall_seconds=perf_counter() - t0,
                           workers=self.workers)

    def _run_serial(self, pending: list[SweepPoint],
                    results: dict[int, PointResult]) -> None:
        failures: dict[int, str] = {}
        for point in pending:
            try:
                envelope = run_spec(point.spec)
            except Exception as exc:  # noqa: BLE001
                import traceback
                failures[point.index] = f"{exc}\n{traceback.format_exc()}"
                continue
            _write_artifact(self.out_dir, point.key, envelope)
            result = PointResult(point.index, point.coords, envelope,
                                 cached=False)
            results[point.index] = result
            self._progress(result)
        if failures:
            raise SweepError(failures)

    def _run_sharded(self, pending: list[SweepPoint],
                     results: dict[int, PointResult]) -> None:
        # Fork when available (cheap, inherits sys.path); spawn works
        # too — specs are picklable and workers re-resolve scenarios by
        # name through the registry.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        n_workers = min(self.workers, len(pending))
        shards: list[list] = [[] for _ in range(n_workers)]
        by_index = {p.index: p for p in pending}
        for i, point in enumerate(pending):
            shards[i % n_workers].append((point.index, point.spec))

        queue = ctx.Queue()
        procs = [ctx.Process(target=_shard_worker,
                             args=(shard, str(self.out_dir), queue),
                             name=f"sweep-{self.sweep.name}-w{i}", daemon=True)
                 for i, shard in enumerate(shards)]
        for proc in procs:
            proc.start()

        failures: dict[int, str] = {}
        received = 0
        try:
            while received < len(pending):
                try:
                    index, envelope, error = queue.get(timeout=1.0)
                except Empty:  # check for dead workers
                    if any(p.exitcode not in (0, None) for p in procs):
                        break  # a worker was killed mid-shard
                    continue
                received += 1
                if error is not None:
                    failures[index] = error
                    continue
                point = by_index[index]
                result = PointResult(index, point.coords, envelope,
                                     cached=False)
                results[index] = result
                self._progress(result)
        finally:
            for proc in procs:
                proc.join()
        dead = [p.name for p in procs if p.exitcode not in (0, None)]
        if dead and received < len(pending):
            failures.setdefault(-1, f"worker(s) died: {dead}")
        if failures:
            raise SweepError(failures)


def run_sweep(sweep: Sweep, workers: int = 1, **kwargs) -> SweepResult:
    """One-call convenience: ``run_sweep(sweep, workers=4)``."""
    return SweepRunner(sweep, workers=workers, **kwargs).run()

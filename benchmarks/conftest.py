"""Shared machinery for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper: it
reads its catalog sweep's results (``SweepRunner(get_sweep(name)).run()``
runs the points the artifact store lacks), prints the same rows/series
the paper reports, saves them under ``benchmarks/out/``, and asserts the
paper's comparative *shape* claims via :class:`ShapeCheck`.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def emit(request):
    """Print a rendered result block and persist it to benchmarks/out/."""

    def _emit(text: str) -> None:
        name = request.node.name
        print(f"\n{text}\n")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.txt"
        with open(path, "a") as fh:
            fh.write(text + "\n")

    # Truncate this test's output file at the start of the run.
    name = request.node.name
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text("")
    return _emit

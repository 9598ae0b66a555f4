"""Merging sweep envelopes into the row/series tables benches print.

These helpers take a :class:`~repro.exp.runner.SweepResult` (or a bare
list of :class:`~repro.exp.runner.PointResult`) and reshape it: one
column of payload values, a (xs, ys) series along an axis,
concatenated per-point sample lists, or summary distributions — the
forms ``render_table`` / ``render_series`` (:mod:`repro.analysis.tables`)
consume.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = ["column", "distribution", "merge_samples", "series", "table_rows"]


def _points(result) -> Sequence:
    return result.points if hasattr(result, "points") else list(result)


def column(result, key: str, default: Any = None) -> list:
    """``payload[key]`` for every point, in point order."""
    return [p.payload.get(key, default) for p in _points(result)]


def series(result, axis: str, key: str) -> "tuple[list, list]":
    """(xs, ys) along one axis: coordinate vs payload value, sorted by
    the axis coordinate (stable for equal coordinates)."""
    pts = sorted(_points(result), key=lambda p: p.coords[axis])
    return ([p.coords[axis] for p in pts],
            [p.payload.get(key) for p in pts])


def merge_samples(result, key: str) -> list:
    """Concatenate per-point payload sample lists (e.g. every seed's
    ``repair_seconds``) into one flat list, in point order."""
    merged: list = []
    for p in _points(result):
        merged.extend(p.payload.get(key) or ())
    return merged


def distribution(samples: Iterable[float], round_to: int = 3) -> dict:
    """count/mean/p50/p95/max summary of a sample list (the shape the
    churn bench reports)."""
    samples = list(samples)
    if not samples:
        return {"count": 0}
    arr = np.asarray(samples, dtype=float)
    return {
        "count": len(samples),
        "mean_s": round(float(arr.mean()), round_to),
        "p50_s": round(float(np.percentile(arr, 50)), round_to),
        "p95_s": round(float(np.percentile(arr, 95)), round_to),
        "max_s": round(float(arr.max()), round_to),
    }


def table_rows(result, row_axis: str, col_axis: str, key: str,
               row_label: Callable[[Any], Any] | None = None) -> list[list]:
    """Pivot: one row per ``row_axis`` value, one cell per ``col_axis``
    value (in first-appearance order), cells from ``payload[key]``."""
    cols: list = []
    cells: dict[Any, dict] = {}
    for p in _points(result):
        r, c = p.coords[row_axis], p.coords[col_axis]
        if c not in cols:
            cols.append(c)
        cells.setdefault(r, {})[c] = p.payload.get(key)
    rows = []
    for r, by_col in cells.items():
        label = row_label(r) if row_label is not None else r
        rows.append([label] + [by_col.get(c) for c in cols])
    return rows

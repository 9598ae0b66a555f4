"""Lightweight trace spans and point events over simulated time.

A :class:`Tracer` accumulates a structured event log: *spans* carry a
start and end timestamp (``trace.span("punch", peer=...)`` as a context
manager, or :meth:`Tracer.begin` / :meth:`Span.end` when the interval
crosses process boundaries, as hole punching does), *events* are
instants.  Records land in the log in completion order and export to
JSONL, one record per line::

    {"kind": "span", "name": "punch", "t0": 0.43, "t1": 0.61,
     "dur": 0.18, "attrs": {"host": "h0", "peer": "h1"}}
    {"kind": "event", "name": "garp", "t": 14.02, "attrs": {"vm": "vm"}}

Those dicts are what readers get, not what is kept.  The log is one row
table per record *shape* — ``("event", name, *attr keys)`` holding rows
``(t, *values)``, ``("span", name)`` holding ``(t0, t1, attrs)`` — plus
one table number per record in log order.  Readers pick tables by name
and rebuild only those rows (DESIGN.md §8).
"""

from __future__ import annotations

import json
import pathlib
from array import array
from typing import Any, Iterator, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """An open interval; :meth:`end` closes it and records it."""

    __slots__ = ("tracer", "name", "t0", "t1", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.t0 = tracer.sim.now
        self.t1: Optional[float] = None
        self.attrs = attrs

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, **attrs: Any) -> "Span":
        """Close the span (idempotent) and append it to the tracer log."""
        if self.t1 is not None:
            return self
        self.t1 = self.tracer.sim.now
        self.attrs.update(attrs)
        self.tracer._file(("span", self.name),
                          (self.t0, self.t1, self.attrs))
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        self.end()


def _records(shape: tuple, rows: list) -> Iterator[dict]:
    """The exported dicts of one table, in row order."""
    kind, name, *keys = shape
    if kind == "span":
        return ({"kind": "span", "name": name, "t0": t0, "t1": t1,
                 "dur": t1 - t0, "attrs": attrs} for t0, t1, attrs in rows)
    return ({"kind": "event", "name": name, "t": row[0],
             "attrs": dict(zip(keys, row[1:]))} for row in rows)


class Tracer:
    """In-sim structured event log (``sim`` needs only ``.now``)."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: shape -> (table number, rows), in first-record order
        self._tables: dict[tuple, tuple[int, list]] = {}
        self._order = array("I")   # table number of each record, log order

    def _table(self, shape: tuple) -> tuple[int, list]:
        table = self._tables.get(shape)
        if table is None:
            table = self._tables[shape] = (len(self._tables), [])
        return table

    def _file(self, shape: tuple, row: tuple) -> None:
        number, rows = self._table(shape)
        rows.append(row)
        self._order.append(number)

    # -- recording ------------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> Span:
        """Open a span; the caller ends it (possibly in another process)."""
        return Span(self, name, attrs)

    def span(self, name: str, **attrs: Any) -> Span:
        """Context-manager form: ``with trace.span("phase"): ...``."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self._file(("event", name, *attrs), (self.sim.now, *attrs.values()))

    def event_rows(self, name: str, keys: tuple, rows: list) -> None:
        """File ``rows`` — ``(t, *values)`` tuples, one value per key — as
        ``len(rows)`` calls of :meth:`event` with keyword ``keys`` would:
        one extend of the table and one of the log order."""
        if rows:
            number, table = self._table(("event", name, *keys))
            table.extend(rows)
            self._order.extend(array("I", (number,)) * len(rows))

    # -- querying -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def _select(self, wanted=lambda name: True,
                kind: Optional[str] = None) -> Iterator[dict]:
        """Log-order records of the tables whose name ``wanted`` accepts;
        the rows of every other table are left alone."""
        streams = {number: _records(shape, rows)
                   for shape, (number, rows) in self._tables.items()
                   if kind in (None, shape[0]) and wanted(shape[1])}
        if len(streams) == 1:
            return streams.popitem()[1]
        return (next(streams[n]) for n in self._order if n in streams)

    @property
    def records(self) -> list[dict]:
        """The whole log, rebuilt on every read; prefer a read by name."""
        return list(self._select())

    def find(self, name: Optional[str] = None, kind: Optional[str] = None) -> list[dict]:
        return list(self._select(lambda n: name is None or n == name, kind))

    def spans(self, name: Optional[str] = None) -> list[dict]:
        return self.find(name, kind="span")

    def events(self, name: Optional[str] = None) -> list[dict]:
        return self.find(name, kind="event")

    def names(self) -> list[str]:
        """Distinct record names in first-appearance order."""
        return list(dict.fromkeys(shape[1] for shape in self._tables))

    # -- export ---------------------------------------------------------
    def export(self, patterns) -> list[dict]:
        """Records whose name matches any glob/prefix pattern (see
        :func:`repro.obs.metrics.path_matches`), in log order — the
        selection result envelopes carry out of worker processes."""
        from repro.obs.metrics import path_matches

        pats = list(patterns)
        return list(self._select(lambda name: path_matches(name, pats)))

    def _lines(self) -> Iterator[str]:
        return (json.dumps(r, default=str) for r in self._select())

    def to_jsonl(self) -> str:
        """One JSON object per line; non-JSON attrs stringified."""
        return "\n".join(self._lines())

    def dump_jsonl(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        with path.open("w") as out:
            out.writelines(line + "\n" for line in self._lines())
        return path

    def clear(self) -> None:
        self._tables.clear()
        del self._order[:]

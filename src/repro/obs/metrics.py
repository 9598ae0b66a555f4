"""Metric primitives and the hierarchical registry.

Metric names form a dot-separated hierarchy (``hostA.driver.pulse.tx``).
The registry is get-or-create: asking twice for the same path returns
the same object, and asking for an existing path as a different metric
kind is an error.  :meth:`MetricsRegistry.scope` returns a view that
prefixes every path, so a subsystem can hand out ``scope("hostA.driver")``
and keep its own metric names relative.

Every metric additionally supports :meth:`export` — a JSON-ready dict
carrying the *full* recorded data (not just the ``describe()`` summary)
— and :meth:`MetricsRegistry.export` selects metrics by dotted-path
glob, which is how the experiment plane (:mod:`repro.exp`) ships
selected measurements out of worker processes in result envelopes.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Callable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "TimeSeries",
    "path_matches",
]


class TimeSeries:
    """Append-only (time, value) log with NumPy export and resampling."""

    def __init__(self, sim, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, value: float) -> None:
        self._times.append(self.sim.now)
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else float("nan")

    def max(self) -> float:
        return float(np.max(self._values)) if self._values else float("nan")

    def min(self) -> float:
        return float(np.min(self._values)) if self._values else float("nan")

    def between(self, t0: float, t1: float) -> "tuple[np.ndarray, np.ndarray]":
        """Samples with t0 <= time < t1, as (times, values) arrays."""
        t = self.times
        mask = (t >= t0) & (t < t1)
        return t[mask], self.values[mask]

    def resample(self, interval: float, t0: float | None = None, t1: float | None = None) -> "tuple[np.ndarray, np.ndarray]":
        """Mean value per ``interval``-wide bucket over [t0, t1).

        Buckets with no samples yield NaN so gaps (e.g. VM downtime)
        remain visible in figure-shaped output.
        """
        t, v = self.times, self.values
        if t.size == 0:
            return np.empty(0), np.empty(0)
        lo = t[0] if t0 is None else t0
        hi = t[-1] + interval if t1 is None else t1
        edges = np.arange(lo, hi + interval * 0.5, interval)
        if edges.size < 2:
            return np.empty(0), np.empty(0)
        n_buckets = edges.size - 1
        idx = np.digitize(t, edges) - 1
        inside = (idx >= 0) & (idx < n_buckets)
        idx = idx[inside]
        counts = np.bincount(idx, minlength=n_buckets)
        sums = np.bincount(idx, weights=v[inside], minlength=n_buckets)
        out = np.full(n_buckets, np.nan)
        filled = counts > 0
        out[filled] = sums[filled] / counts[filled]
        return edges[:-1], out

    def describe(self) -> dict:
        return {"kind": "series", "n": len(self), "mean": self.mean(),
                "min": self.min(), "max": self.max()}

    def export(self) -> dict:
        return {"kind": "series", "times": list(self._times),
                "values": list(self._values)}


class Counter:
    """Named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"

    def describe(self) -> dict:
        return {"kind": "counter", "value": self.value}

    export = describe


class Gauge:
    """Named instantaneous value (set/inc/dec semantics)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def __float__(self) -> float:
        return self.value

    def describe(self) -> dict:
        return {"kind": "gauge", "value": self.value}

    export = describe


class Histogram:
    """Value distribution (e.g. per-punch latency, per-RPC retries)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return float(np.sum(self._values)) if self._values else 0.0

    def mean(self) -> float:
        return float(np.mean(self._values)) if self._values else float("nan")

    def percentile(self, q: float) -> float:
        """q-th percentile in [0, 100]."""
        return float(np.percentile(self._values, q)) if self._values else float("nan")

    def describe(self) -> dict:
        return {"kind": "histogram", "n": self.count, "sum": self.sum,
                "mean": self.mean(), "p50": self.percentile(50),
                "p99": self.percentile(99)}

    def export(self) -> dict:
        return {"kind": "histogram", "values": list(self._values)}


def path_matches(path: str, patterns: Iterable[str]) -> bool:
    """True if ``path`` matches any glob, or sits under any pattern
    interpreted as a dotted prefix."""
    for pat in patterns:
        if fnmatchcase(path, pat) or path.startswith(pat + "."):
            return True
    return False


class MetricsRegistry:
    """Flat dict of dotted path -> metric, with hierarchical views.

    ``sim`` only needs a ``.now`` attribute (time-based metrics stamp
    their samples with it); counters/gauges/histograms never touch it.
    """

    def __init__(self, sim=None) -> None:
        self.sim = sim
        self._metrics: dict[str, Any] = {}

    # -- get-or-create factories ---------------------------------------
    def _get(self, path: str, kind: type, factory: Callable[[], Any]):
        metric = self._metrics.get(path)
        if metric is None:
            metric = self._metrics[path] = factory()
            return metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {path!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def counter(self, path: str) -> Counter:
        return self._get(path, Counter, lambda: Counter(path))

    def gauge(self, path: str) -> Gauge:
        return self._get(path, Gauge, lambda: Gauge(path))

    def series(self, path: str) -> TimeSeries:
        return self._get(path, TimeSeries, lambda: TimeSeries(self.sim, path))

    def histogram(self, path: str) -> Histogram:
        return self._get(path, Histogram, lambda: Histogram(path))

    # -- inspection -----------------------------------------------------
    def get(self, path: str, default: Any = None) -> Any:
        return self._metrics.get(path, default)

    def __len__(self) -> int:
        return len(self._metrics)

    def find(self, prefix: str) -> dict[str, Any]:
        """All metrics at or below ``prefix`` in the dotted hierarchy."""
        dotted = prefix + "."
        return {p: m for p, m in self._metrics.items()
                if p == prefix or p.startswith(dotted)}

    def value(self, path: str, default: float = 0.0) -> float:
        """Scalar shortcut: counter/gauge value, histogram count, series mean."""
        metric = self._metrics.get(path)
        if metric is None:
            return default
        if isinstance(metric, (Counter, Gauge)):
            return float(metric.value)
        if isinstance(metric, Histogram):
            return float(metric.count)
        return metric.mean()

    def snapshot(self, prefix: str = "") -> dict[str, dict]:
        """Path -> describe() dict, optionally restricted to a prefix."""
        metrics = self.find(prefix) if prefix else self._metrics
        return {path: metrics[path].describe() for path in sorted(metrics)}

    def select(self, patterns: Iterable[str]) -> list[str]:
        """Sorted paths matching any pattern: ``fnmatch``-style globs
        (``*.driver.repair.seconds``) or bare prefixes, which match their
        whole subtree (``h0.driver`` matches ``h0.driver.pulse.tx``)."""
        pats = list(patterns)
        return sorted(p for p in self._metrics if path_matches(p, pats))

    def export(self, patterns: Iterable[str]) -> dict[str, dict]:
        """Path -> full-data export() dict for every selected metric —
        the JSON-ready form result envelopes carry between processes."""
        return {path: self._metrics[path].export()
                for path in self.select(patterns)}

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self, prefix)


class MetricsScope:
    """A registry view that prefixes every path with ``<prefix>.``."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix.rstrip(".")

    def _join(self, path: str) -> str:
        return f"{self.prefix}.{path}" if path else self.prefix

    def counter(self, path: str) -> Counter:
        return self.registry.counter(self._join(path))

    def gauge(self, path: str) -> Gauge:
        return self.registry.gauge(self._join(path))

    def series(self, path: str) -> TimeSeries:
        return self.registry.series(self._join(path))

    def histogram(self, path: str) -> Histogram:
        return self.registry.histogram(self._join(path))

    def value(self, path: str, default: float = 0.0) -> float:
        return self.registry.value(self._join(path), default)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._join(prefix))

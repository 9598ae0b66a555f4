"""Observability spine: scoped metrics and trace spans.

Every layer of the reproduction reports into this package instead of
keeping ad-hoc probe objects: the simulator owns one
:class:`MetricsRegistry` (counters / gauges / time series / histograms
addressable by dotted path, e.g. ``hostA.driver.pulse.tx``) and one
:class:`Tracer` (spans and point events recorded to a structured in-sim
log with JSONL export).  Where host time goes is answered outside the
simulator: ``benchmarks/perf/run.py --trace 1`` attributes a run's wall
time to layers from a cProfile pass.

The package deliberately imports nothing from ``repro.sim`` — metrics
and traces only need an object with a ``.now`` attribute — so the
simulation kernel can own the handles without an import cycle.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    TimeSeries,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "Span",
    "TimeSeries",
    "Tracer",
]

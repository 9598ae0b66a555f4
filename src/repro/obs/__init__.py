"""Observability spine: scoped metrics, trace spans, and packet taps.

Every layer of the reproduction reports into this package instead of
keeping ad-hoc probe objects: the simulator owns one
:class:`MetricsRegistry` (counters / gauges / time series / histograms
addressable by dotted path, e.g. ``hostA.driver.pulse.tx``) and one
:class:`Tracer` (spans and point events recorded to a structured in-sim
log with JSONL export).  :class:`PacketTap` objects attach to L2 ports,
bridges, UDP sockets, network stacks, and WAVNet connections to capture
frame and datagram records pcap-style.  Where host time goes is answered
outside the simulator: ``benchmarks/perf/run.py --trace 1`` attributes a
run's wall time to layers from a cProfile pass.

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
from repro.obs.taps import PacketTap, TapRecord, attach_tap
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "PacketTap",
    "Span",
    "TapRecord",
    "TimeSeries",
    "Tracer",
    "attach_tap",
]

"""Deterministic discrete-event simulation kernel.

A small, self-contained SimPy-style engine: a binary-heap event calendar,
generator-based processes, timeouts, interruptible waits, and FIFO stores.
Every other subsystem in this repository (network links, NAT boxes, TCP,
the CAN overlay, VM migration, workload generators) is expressed as
processes scheduled by :class:`Simulator`.

The engine is strictly deterministic: events that fire at the same
simulated time are delivered in schedule order (a monotonically increasing
sequence number breaks ties), so a fixed seed reproduces a run exactly.
"""

from repro.obs.metrics import Counter, TimeSeries
from repro.sim.engine import (
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    Timer,
)
from repro.sim.lifecycle import Component, ComponentRegistry, LifecycleState
from repro.sim.queues import QueueFull, Serializer, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AnyOf",
    "Component",
    "ComponentRegistry",
    "Counter",
    "Event",
    "Interrupt",
    "LifecycleState",
    "Process",
    "QueueFull",
    "RngRegistry",
    "Serializer",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "Timeout",
    "Timer",
]

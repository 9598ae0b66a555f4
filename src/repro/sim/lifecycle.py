"""Unified component lifecycle: start/stop/crash/restore for every layer.

Anything with a failure mode — WAVNet drivers, rendezvous servers, NAT
gateways, links — subclasses :class:`Component` and registers itself
with the simulator's :class:`ComponentRegistry` (``sim.components``).
The base class owns the state machine and the observability (one trace
event and one ``faults.lifecycle.*`` counter per transition); subclasses
implement only the ``_on_stop`` / ``_on_crash`` / ``_on_restore`` hooks.

Semantics:

* **stop** — graceful shutdown: the component gets to say goodbye
  (a CAN node hands its zone over, a driver closes its tunnels).
* **crash** — ungraceful death: all volatile state is lost exactly as a
  power cycle would lose it (NAT mapping tables flush, a rendezvous
  server's host registry vanishes). Peers find out the hard way.
* **restore** — the component comes back empty-handed and must rebuild
  its state through the same protocols a cold boot would use
  (re-register, re-join, re-punch).

The :mod:`repro.faults` plane drives these transitions on a
deterministic schedule; tests and scenarios may also call them directly.
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = ["Component", "ComponentRegistry", "LifecycleState"]


class LifecycleState(enum.Enum):
    RUNNING = "running"
    STOPPED = "stopped"
    CRASHED = "crashed"


class Component:
    """Base class for anything with a start/stop/crash/restore lifecycle."""

    def __init__(self, sim, kind: str, name: str) -> None:
        self.sim = sim
        self.component_kind = kind
        self.lifecycle = LifecycleState.RUNNING
        self.component_id = sim.components.add(self, kind, name)

    # -- inspection -----------------------------------------------------
    @property
    def running(self) -> bool:
        return self.lifecycle is LifecycleState.RUNNING

    # -- transitions ----------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown. Idempotent: stopping a non-running
        component is a no-op."""
        if self.lifecycle is not LifecycleState.RUNNING:
            return
        self.lifecycle = LifecycleState.STOPPED
        self._trace("stop")
        self._on_stop()

    def crash(self) -> None:
        """Ungraceful death: volatile state is lost, nobody is told."""
        if self.lifecycle is LifecycleState.CRASHED:
            return
        self.lifecycle = LifecycleState.CRASHED
        self._trace("crash")
        self._on_crash()

    def restore(self) -> None:
        """Bring a stopped/crashed component back. The component rebuilds
        its state through its normal protocols (hooks may spawn
        processes; ``restore`` itself returns immediately)."""
        if self.lifecycle is LifecycleState.RUNNING:
            return
        was = self.lifecycle
        self.lifecycle = LifecycleState.RUNNING
        self._trace("restore", was=was.value)
        self._on_restore()

    def _trace(self, transition: str, **attrs) -> None:
        self.sim.trace.event(f"lifecycle.{transition}", component=self.component_id, **attrs)
        self.sim.metrics.counter(f"faults.lifecycle.{transition}").add()

    # -- subclass hooks -------------------------------------------------
    def _on_stop(self) -> None:  # pragma: no cover - default no-op
        pass

    def _on_crash(self) -> None:
        # Default ungraceful death == graceful teardown; subclasses with
        # volatile state or goodbye protocols override.
        self._on_stop()

    def _on_restore(self) -> None:  # pragma: no cover - default no-op
        pass


class ComponentRegistry:
    """All lifecycle components of one simulation, addressable by id.

    Ids are ``<kind>:<name>`` (``driver:h0``, ``link:h0.access``,
    ``nat:siteA.nat``). Names need not be globally unique at creation —
    a duplicate gets a ``#2`` suffix — so ad-hoc test topologies with
    default names register cleanly.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._components: dict[str, Component] = {}

    def add(self, component: Component, kind: str, name: str) -> str:
        base = f"{kind}:{name}"
        cid = base
        n = 2
        while cid in self._components:
            cid = f"{base}#{n}"
            n += 1
        self._components[cid] = component
        return cid

    def get(self, component_id: str) -> Optional[Component]:
        return self._components.get(component_id)

    def __getitem__(self, component_id: str) -> Component:
        return self._components[component_id]

    def find(self, kind: Optional[str] = None,
             state: Optional[LifecycleState] = None) -> dict[str, Component]:
        """Components filtered by kind and/or lifecycle state."""
        return {cid: c for cid, c in self._components.items()
                if (kind is None or c.component_kind == kind)
                and (state is None or c.lifecycle is state)}

    # -- convenience drivers for the fault plane ------------------------
    def stop(self, component_id: str) -> None:
        self[component_id].stop()

    def crash(self, component_id: str) -> None:
        self[component_id].crash()

    def restore(self, component_id: str) -> None:
        self[component_id].restore()

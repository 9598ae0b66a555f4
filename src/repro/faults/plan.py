"""Deterministic fault schedules.

A :class:`FaultPlan` is a list of ``(time, kind, kwargs)`` entries
dispatched to :class:`~repro.faults.injector.FaultInjector` verbs.
Entries come from explicit scripting (:meth:`FaultPlan.at`) or from
:meth:`FaultPlan.random_churn`, which draws crash/restore times from a
named stream of the simulator RNG — so the same seed produces the
identical fault sequence, and adding a differently-named plan never
perturbs other random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.faults.injector import FaultInjector

__all__ = ["FaultEvent", "FaultPlan"]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection: ``injector.<kind>(**kwargs)`` at ``at``."""

    at: float
    kind: str
    kwargs: dict = field(default_factory=dict)


class FaultPlan:
    """A deterministic schedule of fault injections."""

    def __init__(self, sim, name: str = "plan",
                 injector: FaultInjector | None = None) -> None:
        self.sim = sim
        self.name = name
        self.injector = injector or FaultInjector(sim)
        self.events: list[FaultEvent] = []
        self.armed = False

    def at(self, t: float, kind: str, **kwargs) -> "FaultPlan":
        """Schedule ``injector.<kind>(**kwargs)`` at absolute time ``t``."""
        if self.armed:
            raise RuntimeError("plan already armed")
        if not hasattr(self.injector, kind):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.events.append(FaultEvent(float(t), kind, dict(kwargs)))
        return self

    def random_churn(self, component_ids, start: float, stop: float,
                     rate: float, mean_downtime: float = 20.0) -> "FaultPlan":
        """Poisson crash/restore churn over ``component_ids`` between
        ``start`` and ``stop``: crashes arrive at ``rate`` per second
        (across the whole set), each followed by a restore after an
        exponentially distributed downtime (mean ``mean_downtime``).
        All draws come from the ``faults.<plan-name>`` RNG stream."""
        if self.armed:
            raise RuntimeError("plan already armed")
        rng = self.sim.rng.stream(f"faults.{self.name}")
        ids = list(component_ids)
        t = float(start)
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= stop:
                break
            cid = ids[int(rng.integers(len(ids)))]
            downtime = float(rng.exponential(mean_downtime))
            self.at(t, "crash", component_id=cid)
            self.at(min(stop, t + downtime), "restore", component_id=cid)
        return self

    def arm(self) -> "FaultPlan":
        """Install every entry on the simulator calendar (fast-lane
        callables — no process overhead per injection)."""
        if self.armed:
            raise RuntimeError("plan already armed")
        self.armed = True
        for event in sorted(self.events, key=lambda e: e.at):
            verb = getattr(self.injector, event.kind)
            self.sim.call_at(event.at, partial(verb, **event.kwargs))
        return self

    def __len__(self) -> int:
        return len(self.events)

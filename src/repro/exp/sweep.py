"""Parameter sweeps: named axes expanded into a grid of specs.

A :class:`Sweep` owns a scenario name, base parameters, and an ordered
list of *axis groups*. Each group is either a single axis (cartesian
with every other group) or several axes zipped together (they advance
in lockstep — e.g. ``n_hosts`` and the per-size ``seed`` of Fig 8).
Point order is deterministic: the cartesian product iterates groups in
the order they were added, last group fastest — so point indices are
stable and the artifact store can key on them.

The reserved axis name ``seed`` feeds :attr:`ExperimentSpec.seed`
instead of the scenario params, which is how multi-seed sweeps
(``BENCH_churn``'s seeds axis) are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Sequence

from repro.exp.spec import ExperimentSpec

__all__ = ["Sweep", "SweepPoint"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: its stable index, axis coordinates, and spec."""

    index: int
    coords: dict
    spec: ExperimentSpec

    @property
    def key(self) -> str:
        """Artifact-store key: readable index + spec content hash."""
        return f"p{self.index:04d}-{self.spec.digest()}"


class Sweep:
    """A named grid of :class:`ExperimentSpec` over one scenario."""

    def __init__(self, name: str, scenario: str, base_params: dict | None = None,
                 seed: int = 0, metrics: Iterable[str] = (),
                 traces: Iterable[str] = ()) -> None:
        self.name = name
        self.scenario = scenario
        self.base_params = dict(base_params or {})
        self.seed = seed
        self.metrics = tuple(metrics)
        self.traces = tuple(traces)
        # Each group: list of (axis_name, values) with equal lengths.
        self._groups: list[list[tuple[str, list]]] = []

    # -- axes ----------------------------------------------------------
    def add_axis(self, name: str, values: Sequence) -> "Sweep":
        """Add one axis, cartesian against every existing group."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        self._check_new_names([name])
        self._groups.append([(name, values)])
        return self

    def zip_axes(self, **axes: Sequence) -> "Sweep":
        """Add several axes advancing in lockstep (one group)."""
        if not axes:
            raise ValueError("zip_axes() needs at least one axis")
        items = [(name, list(values)) for name, values in axes.items()]
        lengths = {len(v) for _n, v in items}
        if len(lengths) != 1:
            raise ValueError(
                f"zipped axes must have equal lengths, got "
                f"{ {n: len(v) for n, v in items} }")
        if 0 in lengths:
            raise ValueError("zipped axes have no values")
        self._check_new_names([n for n, _v in items])
        self._groups.append(items)
        return self

    def _check_new_names(self, names: Iterable[str]) -> None:
        seen = {n for group in self._groups for n, _v in group}
        seen.update(self.base_params)
        for name in names:
            if name in seen:
                raise ValueError(f"duplicate axis/param {name!r}")

    def axis_names(self) -> list[str]:
        return [n for group in self._groups for n, _v in group]

    def __len__(self) -> int:
        n = 1
        for group in self._groups:
            n *= len(group[0][1])
        return n

    # -- expansion ------------------------------------------------------
    def points(self) -> list[SweepPoint]:
        """The full grid in deterministic order (last group fastest)."""
        if not self._groups:
            rows: Iterable[tuple] = [()]
        else:
            per_group = [
                [dict(zip([n for n, _v in group], combo))
                 for combo in zip(*[v for _n, v in group])]
                for group in self._groups
            ]
            rows = product(*per_group)
        points = []
        for index, row in enumerate(rows):
            coords: dict[str, Any] = {}
            for part in row:
                coords.update(part)
            params = dict(self.base_params)
            params.update(coords)
            seed = params.pop("seed", self.seed)
            points.append(SweepPoint(
                index=index,
                coords=coords,
                spec=ExperimentSpec(scenario=self.scenario, params=params,
                                    seed=seed, metrics=self.metrics,
                                    traces=self.traces),
            ))
        return points

    def specs(self) -> list[ExperimentSpec]:
        return [p.spec for p in self.points()]

    def describe(self) -> dict:
        """JSON-ready summary (stored in the sweep manifest)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "base_params": dict(self.base_params),
            "seed": self.seed,
            "metrics": list(self.metrics),
            "traces": list(self.traces),
            "axes": [{n: list(v) for n, v in group} for group in self._groups],
            "n_points": len(self),
        }

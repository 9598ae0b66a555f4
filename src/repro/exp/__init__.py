"""Experiment plane: declarative specs, parameter sweeps, and a sweep
runner that spreads the points of many sweeps over one process pool.

The paper's evaluation is a grid of sweeps — NAT-type pairs (Table 2),
RTT x bandwidth points (Figs 6-7), host counts (Fig 8), seeds x fault
schedules (churn). Every simulation is deterministic and independent,
so this package makes each one a picklable :class:`ExperimentSpec`
(scenario name + params + seed + metric/trace selections, resolved
against the scenario registry), expands grids with :class:`Sweep`,
and executes them with :class:`SweepRunner` — in-process or on a
``ProcessPoolExecutor`` — with an on-disk artifact store and
resume-from-cache. :mod:`repro.exp.aggregate` reshapes the resulting
envelopes into the row/series tables the benchmarks print.

CLI: ``python -m repro.exp run <sweep> --workers N`` (named sweeps live
in :mod:`repro.exp.catalog`).
"""

from repro.exp import aggregate
from repro.exp.catalog import get_sweep, sweep_names
from repro.exp.runner import (
    PointResult,
    SweepError,
    SweepResult,
    SweepRunner,
    default_sweep_root,
)
from repro.exp.spec import (
    ExperimentSpec,
    ScenarioRegistry,
    canonical_envelope,
    envelope_bytes,
    get_scenario,
    registry,
    run_spec,
    scenario,
    scenario_names,
)
from repro.exp.sweep import Sweep, SweepPoint

__all__ = [
    "ExperimentSpec",
    "PointResult",
    "ScenarioRegistry",
    "Sweep",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "aggregate",
    "canonical_envelope",
    "default_sweep_root",
    "envelope_bytes",
    "get_scenario",
    "get_sweep",
    "registry",
    "run_spec",
    "scenario",
    "scenario_names",
    "sweep_names",
]

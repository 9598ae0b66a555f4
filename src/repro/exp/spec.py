"""Declarative experiment specs and the scenario registry.

An :class:`ExperimentSpec` is a picklable description of ONE simulation
run: a scenario name resolved against the registry, its parameters, the
seed, and which metrics / trace records to export. Because a spec is
pure data, it can cross process boundaries — the sweep runner
(:mod:`repro.exp.runner`) pickles specs into pool workers and gets
result *envelopes* back.

Scenario functions are registered with the :func:`scenario` decorator::

    @scenario("churn_recovery")
    def churn_recovery(seed=0, n_hosts=4, horizon=220.0):
        sim = Simulator(seed=seed)
        ...
        return sim, {"converged": True, ...}

The contract: ``fn(seed=..., **params)`` returns either a JSON-ready
payload dict, or ``(sim, payload)`` — returning the simulator lets
:func:`run_spec` export the spec's selected metrics/traces and the
kernel's dispatch counters into the envelope.

Envelopes are deterministic: :func:`envelope_bytes` serializes one
canonically with the wall-clock field stripped, so a sweep executed
in-process and one spread over N workers must produce byte-identical
results (asserted by ``benchmarks/bench_sweep_parallel.py`` and the
determinism goldens in ``tests/test_exp.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

__all__ = [
    "ExperimentSpec",
    "ScenarioRegistry",
    "canonical_envelope",
    "envelope_bytes",
    "ensure_scenarios_loaded",
    "get_scenario",
    "registry",
    "run_spec",
    "scenario",
    "scenario_names",
]

# Modules whose import side effect registers the standard scenarios.
_SCENARIO_MODULES = (
    "repro.scenarios.wavnet_env",
    "repro.scenarios.churn",
    "repro.scenarios.emulated",
    "repro.scenarios.planetlab",
    "repro.scenarios.stacks",
    "repro.scenarios.fluid",
    "repro.scenarios.storm",
    "repro.scenarios.fairness",
    "repro.scenarios.traversal",
    "repro.scenarios.migration",
)


class ScenarioRegistry:
    """Name -> scenario function. Usually used via the module-level
    :data:`registry` and the :func:`scenario` decorator."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Callable] = {}

    def register(self, name: str, fn: Callable) -> Callable:
        existing = self._scenarios.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"scenario {name!r} already registered")
        self._scenarios[name] = fn
        return fn

    def scenario(self, name: str) -> Callable[[Callable], Callable]:
        """Decorator form: ``@registry.scenario("churn_recovery")``."""

        def deco(fn: Callable) -> Callable:
            return self.register(name, fn)

        return deco

    def get(self, name: str) -> Callable:
        ensure_scenarios_loaded()
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        ensure_scenarios_loaded()
        return sorted(self._scenarios)

    def __contains__(self, name: str) -> bool:
        ensure_scenarios_loaded()
        return name in self._scenarios


registry = ScenarioRegistry()
scenario = registry.scenario
get_scenario = registry.get
scenario_names = registry.names

_loaded = False


def ensure_scenarios_loaded() -> None:
    """Import the standard scenario modules so their registrations run.

    Called lazily on first lookup — worker processes resolve scenario
    names through this, so a spec never has to pickle a function.
    """
    global _loaded
    if _loaded:
        return
    _loaded = True  # set first: the imports below re-enter via @scenario
    import importlib

    for module in _SCENARIO_MODULES:
        importlib.import_module(module)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative, picklable description of one simulation run.

    ``metrics`` / ``traces`` are dotted-path selections (globs or
    prefixes, see :func:`repro.obs.metrics.path_matches`) exported into
    the result envelope alongside the scenario's own payload.
    """

    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    metrics: tuple = ()
    traces: tuple = ()

    def __post_init__(self) -> None:
        if "seed" in self.params:
            raise ValueError("pass seed via ExperimentSpec.seed, not params")
        # Normalize so equal selections compare/hash equal.
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "traces", tuple(self.traces))

    # -- canonical forms ----------------------------------------------
    def canonical(self) -> dict:
        """JSON-ready dict; the identity the artifact cache keys on."""
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
            "metrics": list(self.metrics),
            "traces": list(self.traces),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(scenario=data["scenario"], params=dict(data.get("params", {})),
                   seed=int(data.get("seed", 0)),
                   metrics=tuple(data.get("metrics", ())),
                   traces=tuple(data.get("traces", ())))

    def digest(self, n: int = 10) -> str:
        """Stable short content hash of the canonical form."""
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:n]

    def resolve(self) -> Callable:
        """The registered scenario function this spec names."""
        return get_scenario(self.scenario)


def run_spec(spec: ExperimentSpec) -> dict:
    """Execute one spec in-process and return its result envelope.

    The envelope is a JSON-ready dict::

        {"spec": {...},             # the canonical spec
         "payload": {...},          # what the scenario returned
         "metrics": {path: {...}},  # selected metric exports
         "traces": [...],           # selected trace records
         "obs": {"sim_now", "events_dispatched", "n_metrics",
                 "n_trace_records"},
         "wall_seconds": 0.123}     # excluded from envelope_bytes()

    Everything except ``wall_seconds`` is deterministic for a given
    spec, regardless of which process (or how many siblings) ran it.
    """
    fn = spec.resolve()
    wall = perf_counter()
    result = fn(seed=spec.seed, **spec.params)
    wall = perf_counter() - wall

    sim = None
    payload = result
    if isinstance(result, tuple):
        sim, payload = result
    if not isinstance(payload, dict):
        raise TypeError(
            f"scenario {spec.scenario!r} must return a payload dict "
            f"(or (sim, payload)), got {type(payload).__name__}")

    envelope: dict[str, Any] = {
        "spec": spec.canonical(),
        "payload": payload,
        "metrics": {},
        "traces": [],
        "obs": {},
        "wall_seconds": wall,
    }
    if sim is not None:
        if spec.metrics:
            envelope["metrics"] = sim.metrics.export(spec.metrics)
        if spec.traces:
            envelope["traces"] = sim.trace.export(spec.traces)
        envelope["obs"] = {
            "sim_now": sim.now,
            "events_dispatched": sim.events_dispatched,
            "n_metrics": len(sim.metrics),
            "n_trace_records": len(sim.trace),
        }
    # Round-trip through JSON so a fresh envelope is indistinguishable
    # from one loaded back out of the artifact store (tuples -> lists,
    # numpy scalars -> floats, dict key coercion).
    return json.loads(json.dumps(envelope, default=_jsonify))


def _jsonify(obj: Any):
    """Fallback serializer: numpy scalars/arrays to plain Python."""
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_envelope(envelope: dict) -> dict:
    """The deterministic part of an envelope (wall clock stripped)."""
    return {k: v for k, v in envelope.items() if k != "wall_seconds"}


def envelope_bytes(envelope: dict) -> bytes:
    """Canonical serialized form used for byte-identity assertions."""
    return json.dumps(canonical_envelope(envelope), sort_keys=True).encode()

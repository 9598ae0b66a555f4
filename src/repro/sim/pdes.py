"""Site-partitioned parallel discrete-event simulation (PDES).

**Status: experimental.** The plane supports packet-fidelity site
meshes — one scenario, ``pdes_mesh`` — and is kept as the
serial-vs-partitioned byte-identity oracle, not as a way to go faster:
measured on 2 cores, 2 partitions run ``pdes_mesh`` at 0.74-0.94x of
serial (each worker spends more than half its wall inside the
coordinator exchange). Workers exchanging frames directly over pipes reached 1.15x
in a prototype, under a 1.37x zero-wait ceiling set by pickling; DESIGN
section 14 has the numbers. The coordinator protocol below is the
measured one.

One big scenario still runs on one core: ``repro.exp`` shards across
*runs*, not inside a run. This module partitions a single simulation by
WAN site — every :class:`~repro.net.wan.WanCloud` attachment point (and
the hosts/NAT/links behind it) belongs to exactly one *partition*, each
partition runs its own :class:`~repro.sim.engine.Simulator` calendar in
its own OS process, and the partitions synchronize with conservative
time windows.

**Lookahead.** A frame sent at time ``t`` from a site in partition A to
a site in partition B arrives at ``t + latency(src, dst)``, and every
cross-partition latency is at least ``L`` — the minimum one-way WAN
latency between any local/remote site pair (the cloud's per-pair
latency table, :meth:`WanCloud.min_remote_latency`). So events inside
the half-open window ``[W, W + L)`` can never be affected by frames the
*other* partitions send inside that same window: those frames deliver
at ``>= W + L``. Each partition therefore runs its calendar up to the
window end (:meth:`Simulator.run_window` — strictly-before semantics),
all partitions exchange the frames captured at their cloud boundary
(:meth:`WanCloud.drain_outbox`), injections are scheduled with
:meth:`WanCloud.inject_remote_frame`, and the loop advances to the next
window. A final *inclusive* ``run(until=horizon)`` dispatches events at
exactly the horizon, mirroring the serial run.

**Determinism.** The merged result is byte-identical to the serial run:

* deliver times are computed with exactly the serial float expression
  (``send_time + latency``), on the sender for unicast and on the
  receiver for floods (the latency table is replicated);
* injections are sorted by ``(deliver_time, send_time, src_partition,
  sender_seq, flood_sub_index)`` before scheduling, so calendar ties at
  one deliver time resolve identically on every run;
* the receiver learns the source MAC at injection time — no local host
  can have addressed that MAC before the first frame from it arrives,
  so unicast/flood decisions match the serial cloud;
* every component draws from named RNG streams
  (:class:`~repro.sim.rng.RngRegistry`), so a component sees the same
  sequence whether or not unrelated components share its process;
* ``frames_carried`` counts on the sending side only, and a remote
  delivery costs exactly one dispatched calendar entry on the receiver
  (none on the sender) — matching the serial ``call_in`` per delivery.

**Scenario contract.** A pdes-capable scenario takes ``partitions=``
as an ordinary spec parameter plus a private ``_partition=None`` hook::

    @scenario("my_pdes_scenario")
    def my_pdes_scenario(seed=0, partitions=1, ..., _partition=None):
        ctx = _partition or PartitionContext(partitions)
        sim = Simulator(seed=seed)
        ... build groups; ctx.owns(g) decides local build vs
            cloud.declare_remote_site(site, ctx.owner_of(g)) ...
        ctx.run(sim, cloud, horizon)
        shards = {g: collect(g) for g in owned_groups}
        if ctx.serial:
            return sim, my_merger(shards)
        return sim, shards

    @pdes_merger("my_pdes_scenario")
    def my_merger(shards): ...

``run_spec`` (serial) never passes ``_partition`` — the scenario builds
every group in one process and merges its own shards, running exactly
the code path the workers run. :func:`run_partitioned` launches one
worker per partition and applies the registered merger to the union of
the worker shards, so serial and partitioned envelopes are assembled by
the same functions.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import traceback
from time import perf_counter
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError

__all__ = [
    "PartitionContext",
    "PdesError",
    "execute_spec",
    "get_merger",
    "has_merger",
    "merge_trace_records",
    "pdes_merger",
    "run_partitioned",
]


class PdesError(RuntimeError):
    """A partitioned run failed (worker error, protocol violation)."""


# -- merger registry ----------------------------------------------------

_MERGERS: dict[str, Callable[[dict], dict]] = {}


def pdes_merger(scenario_name: str) -> Callable[[Callable], Callable]:
    """Register the shard-merge function for a pdes-capable scenario.

    The merger maps ``{group_index: shard_payload}`` (all groups) to the
    scenario's final payload dict. The *scenario itself* calls it in
    serial mode; :func:`run_partitioned` calls it on the union of the
    worker shards — one merge implementation, two callers.
    """

    def deco(fn: Callable) -> Callable:
        existing = _MERGERS.get(scenario_name)
        if existing is not None and existing is not fn:
            raise ValueError(f"merger for {scenario_name!r} already registered")
        _MERGERS[scenario_name] = fn
        return fn

    return deco


def get_merger(scenario_name: str) -> Callable[[dict], dict]:
    from repro.exp.spec import ensure_scenarios_loaded

    ensure_scenarios_loaded()
    try:
        return _MERGERS[scenario_name]
    except KeyError:
        raise KeyError(
            f"scenario {scenario_name!r} has no registered pdes merger"
        ) from None


def has_merger(scenario_name: str) -> bool:
    from repro.exp.spec import ensure_scenarios_loaded

    ensure_scenarios_loaded()
    return scenario_name in _MERGERS


# -- partition context --------------------------------------------------


class PartitionContext:
    """Which site-groups this process owns, plus the window-loop hooks.

    ``partition_id is None`` means *serial*: one process owns every
    group and :meth:`run` is a plain ``sim.run(until=horizon)``.
    Group ownership is round-robin (``group % partitions``) so serial
    and partitioned builds agree without coordination.
    """

    def __init__(self, partitions: int, partition_id: Optional[int] = None,
                 down=None, up=None) -> None:
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if partition_id is not None and not 0 <= partition_id < partitions:
            raise ValueError(f"partition_id {partition_id} out of range")
        self.partitions = partitions
        self.partition_id = partition_id
        self._down = down  # coordinator -> this worker
        self._up = up      # this worker -> coordinator
        self.windows_run = 0
        self.frames_exchanged = 0

    @property
    def serial(self) -> bool:
        return self.partition_id is None

    def owner_of(self, group_index: int) -> int:
        return group_index % self.partitions

    def owns(self, group_index: int) -> bool:
        return self.serial or self.owner_of(group_index) == self.partition_id

    def owned_groups(self, n_groups: int) -> list[int]:
        return [g for g in range(n_groups) if self.owns(g)]

    # -- window loop ----------------------------------------------------
    def run(self, sim, cloud, horizon: float) -> None:
        """Run ``sim`` to ``horizon``: plain run when serial, the
        conservative window-barrier loop when partitioned."""
        horizon = float(horizon)
        if self.serial:
            sim.run(until=horizon)
            return
        self._up.put(("hello", self.partition_id, cloud.min_remote_latency()))
        msg = self._down.get()
        if msg[0] != "lookahead":  # pragma: no cover - protocol bug
            raise PdesError(f"expected lookahead, got {msg[0]!r}")
        lookahead = float(msg[1])
        if not lookahead > 0.0:
            raise PdesError(
                f"non-positive PDES lookahead {lookahead}: cross-partition "
                "site pairs need a positive one-way WAN latency")
        window = 0
        while sim.now < horizon:
            sim.run_window(min(sim.now + lookahead, horizon))
            self._exchange(sim, cloud, window)
            self.windows_run += 1
            window += 1
        # Events at exactly the horizon dispatch once, inclusively, just
        # as the serial run's final run(until=horizon) does.
        sim.run(until=horizon)

    def _exchange(self, sim, cloud, window: int) -> None:
        """Window barrier: ship this window's boundary captures to the
        coordinator, receive the frames addressed to us, and schedule
        them in the deterministic injection order."""
        self._up.put(("window", window, self.partition_id,
                      cloud.drain_outbox()))
        msg = self._down.get()
        if msg[0] == "abort":
            raise PdesError(f"coordinator aborted: {msg[1]}")
        if msg[0] != "batch" or msg[1] != window:  # pragma: no cover
            raise PdesError(f"expected batch {window}, got {msg[:2]!r}")
        inject: list[tuple] = []
        for src_pid, deliver, send, src_site, seq, dst_site, frame in msg[2]:
            if dst_site is None:
                # Flood record: expand over our attachment points with
                # locally computed (table-replicated) latencies.
                for sub, (site, when) in enumerate(
                        cloud.expand_flood(src_site, send)):
                    inject.append((when, send, src_pid, seq, sub,
                                   src_site, site, frame))
            else:
                inject.append((deliver, send, src_pid, seq, 0,
                               src_site, dst_site, frame))
        inject.sort(key=lambda r: r[:5])
        for when, send, _src_pid, _seq, _sub, src_site, dst_site, frame in inject:
            if when < sim.now:
                raise SimulationError(
                    f"lookahead violation: frame {src_site}->{dst_site} "
                    f"delivers at {when} inside window ending {sim.now}")
            cloud.inject_remote_frame(src_site, dst_site, when, frame)
        self.frames_exchanged += len(inject)


# -- worker -------------------------------------------------------------


def _partition_worker(spec_dict: dict, partition_id: int, partitions: int,
                      down, up) -> None:
    """Worker-process entry: run the scenario as one partition and ship
    the shard (payload pieces + observability exports) back."""
    try:
        from repro.exp.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict(spec_dict)
        fn = spec.resolve()
        ctx = PartitionContext(partitions, partition_id, down=down, up=up)
        result = fn(seed=spec.seed, _partition=ctx, **spec.params)
        if not (isinstance(result, tuple) and len(result) == 2):
            raise TypeError(
                f"pdes scenario {spec.scenario!r} must return (sim, shards)")
        sim, shards = result
        if not isinstance(shards, dict):
            raise TypeError(
                f"pdes scenario {spec.scenario!r} returned "
                f"{type(shards).__name__} shards, expected dict")
        up.put(("done", partition_id, {
            "shards": shards,
            "metrics": sim.metrics.export(spec.metrics) if spec.metrics else {},
            "traces": sim.trace.export(spec.traces) if spec.traces else [],
            "metric_paths": sim.metrics.paths(),
            "sim_now": sim.now,
            "events_dispatched": sim.events_dispatched,
            "n_trace_records": len(sim.trace),
        }))
    except BaseException as exc:  # noqa: BLE001 - crosses process boundary
        up.put(("error", partition_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))


# -- envelope merging ---------------------------------------------------


def _trace_time(record: dict) -> float:
    """Log-order key: spans enter the log at their end time."""
    return record["t1"] if record.get("kind") == "span" else record["t"]


def merge_trace_records(per_partition: list[list[dict]]) -> list[dict]:
    """Time-ordered merge of per-partition trace logs. Each log is
    already nondecreasing in time (records append at emission), so a
    stable sort preserves intra-partition order; cross-partition ties
    order by partition id (pdes scenarios keep cross-partition record
    times distinct)."""
    merged = [r for records in per_partition for r in records]
    merged.sort(key=_trace_time)
    return merged


def _merge_metrics(per_partition: list[dict]) -> dict:
    """Union of the partitions' selected metric exports. Selected paths
    must be partition-disjoint (identical duplicates — e.g. from metrics
    created but untouched in several partitions — are tolerated)."""
    from repro.exp.spec import _jsonify

    merged: dict[str, Any] = {}
    canon: dict[str, str] = {}
    for exports in per_partition:
        for path, export in exports.items():
            blob = json.dumps(export, sort_keys=True, default=_jsonify)
            if path in merged:
                if canon[path] != blob:
                    raise PdesError(
                        f"metric {path!r} was written in more than one "
                        "partition; pdes specs must select "
                        "partition-disjoint metric paths")
                continue
            merged[path] = export
            canon[path] = blob
    return merged


# -- coordinator --------------------------------------------------------


def run_partitioned(spec, partitions: Optional[int] = None) -> dict:
    """Execute one spec split across partition worker processes and
    return a result envelope byte-identical to ``run_spec(spec)``.

    ``partitions`` defaults to ``spec.params["partitions"]``; a value of
    1 (or a missing param) just runs serially in-process.
    """
    from repro.exp.spec import _jsonify, run_spec

    n = int(partitions if partitions is not None
            else spec.params.get("partitions", 1) or 1)
    if n <= 1:
        return run_spec(spec)
    merger = get_merger(spec.scenario)

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    up = ctx.Queue()
    downs = [ctx.Queue() for _ in range(n)]
    procs = [ctx.Process(target=_partition_worker,
                         args=(spec.canonical(), pid, n, downs[pid], up),
                         name=f"pdes-{spec.scenario}-p{pid}", daemon=True)
             for pid in range(n)]
    wall = perf_counter()
    for proc in procs:
        proc.start()

    blobs: dict[int, dict] = {}
    windows: dict[int, dict[int, list]] = {}
    hellos: dict[int, float] = {}
    failure: Optional[str] = None
    try:
        while len(blobs) < n and failure is None:
            try:
                msg = up.get(timeout=1.0)
            except queue.Empty:
                dead = [p.name for p in procs if p.exitcode not in (0, None)]
                if dead:
                    failure = f"partition worker(s) died: {dead}"
                continue
            except Exception as exc:  # noqa: BLE001 - unpickle ran worker code
                # The message is consumed; its worker may exit 0, so
                # waiting for a dead process would never end.
                failure = (f"worker message failed to load: "
                           f"{type(exc).__name__}: {exc}\n"
                           f"{traceback.format_exc()}")
                continue
            kind = msg[0]
            if kind == "hello":
                hellos[msg[1]] = float(msg[2])
                if len(hellos) == n:
                    lookahead = min(hellos.values())
                    for down in downs:
                        down.put(("lookahead", lookahead))
            elif kind == "window":
                _, window, pid, records = msg
                pending = windows.setdefault(window, {})
                pending[pid] = records
                if len(pending) == n:
                    batches: list[list] = [[] for _ in range(n)]
                    for src_pid in range(n):
                        for rec in pending[src_pid]:
                            batches[rec[0]].append((src_pid,) + rec[1:])
                    for pid2, down in enumerate(downs):
                        down.put(("batch", window, batches[pid2]))
                    del windows[window]
            elif kind == "done":
                blobs[msg[1]] = msg[2]
            elif kind == "error":
                failure = f"partition {msg[1]}: {msg[2]}"
            else:  # pragma: no cover - protocol bug
                failure = f"unknown message {kind!r}"
    finally:
        if failure is not None:
            for down in downs:
                down.put(("abort", failure))
        for proc in procs:
            proc.join(timeout=10.0)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
    if failure is not None:
        raise PdesError(failure)
    wall = perf_counter() - wall

    shards: dict[int, Any] = {}
    for pid in range(n):
        for group, shard in blobs[pid]["shards"].items():
            if group in shards:
                raise PdesError(f"group {group} returned by two partitions")
            shards[group] = shard
    paths: set[str] = set()
    for pid in range(n):
        paths.update(blobs[pid]["metric_paths"])
    ordered = [blobs[pid] for pid in range(n)]
    envelope: dict[str, Any] = {
        "spec": spec.canonical(),
        "payload": merger(shards),
        "metrics": _merge_metrics([b["metrics"] for b in ordered]),
        "traces": merge_trace_records([b["traces"] for b in ordered]),
        "obs": {
            "sim_now": max(b["sim_now"] for b in ordered),
            "events_dispatched": sum(b["events_dispatched"] for b in ordered),
            "n_metrics": len(paths),
            "n_trace_records": sum(b["n_trace_records"] for b in ordered),
        },
        "wall_seconds": wall,
    }
    # Same JSON round-trip run_spec applies, so the two are comparable
    # byte-for-byte via envelope_bytes().
    return json.loads(json.dumps(envelope, default=_jsonify))


def execute_spec(spec) -> dict:
    """Run a spec the way it asks to be run: partitioned when it carries
    ``partitions > 1`` and its scenario registered a merger, serial
    otherwise. The sweep runner routes every point through this."""
    from repro.exp.spec import run_spec

    n = int(spec.params.get("partitions", 1) or 1)
    if n > 1 and has_merger(spec.scenario):
        return run_partitioned(spec)
    return run_spec(spec)

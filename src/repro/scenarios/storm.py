"""Registration storm: mass reconnect after a regional outage.

The scale scenario for the struct-of-arrays control plane. Synthetic
endpoints never get an object stack — per region, one public "lane"
host (a concentrator/proxy) registers them with the rendezvous fleet in
batches of hundreds, on the same ``rvz.register`` / ``rvz.keepalive``
RPCs and :class:`~repro.core.hoststate.Registration` body a built host
sends as a batch of one, so 10^4-10^6 endpoints cost table rows plus
RPC envelopes, not drivers and NAT boxes. The storm itself:

1. **Fill** — every lane registers its region's endpoints, batched and
   spread across the fleet by consistent hashing.
2. **Outage** — one region goes dark at once
   (:meth:`~repro.faults.injector.FaultInjector.regional_outage`), the
   table-resident fault verb: registrations drop, rows survive.
3. **Reconnect storm** — the dark region re-registers everything. With
   admission control on, the token buckets shed the front of the wave
   and the lane backs off with jittered retries; with
   ``hot_zone_limit`` set, the CAN sheds hot zones under the load.
   Meanwhile a handful of *real* (fully built) hosts punch tunnels
   through the same brokering path, sampling punch-coordination
   latency under control-plane pressure.

Payload carries the fig08-style curve inputs: control-plane ops/sec
for fill and reconnect, punch latencies, admission accept/reject
counts, per-server fleet load, CAN split/handle counters, and a
steady-state bytes-per-endpoint accounting of everything the control
plane keeps per idle endpoint (table columns, name index, CAN handle
stores). ``filled`` counts what the fleet acknowledged, including the
``handles_dropped`` entries that no CAN node stored.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.hoststate import SPEC, Registration
from repro.exp.spec import scenario
from repro.faults import FaultInjector
from repro.nat.types import NatType
from repro.overlay.rendezvous import RENDEZVOUS_PORT, _Keepalive
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.scenarios.builder import make_public_host
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["StormLane", "build_storm_lanes", "control_counters",
           "registration_storm", "steady_state_bytes"]

LANE_PORT = 4700
_NAT_CODE = list(NatType).index(NatType.PORT_RESTRICTED)


class StormLane:
    """One region's registration concentrator: a public host that
    batch-registers synthetic endpoints with the rendezvous fleet."""

    def __init__(self, sim, env: WavnetEnvironment, region: int,
                 count: int, base_index: int) -> None:
        self.sim = sim
        self.env = env
        self.region = region
        self.names = tuple(f"r{region}e{j}" for j in range(count))
        self.rng = sim.rng.stream(f"storm.lane{region}")
        self.rejected_batches = 0
        self.failed = 0
        self.done_at = -1.0
        self.keepalive_sweeps = 0
        self.keepalives_acked = 0
        # Server assignment is the fleet's static consistent hash,
        # computed through the env's ring; one ascending index array of
        # this lane's endpoints per server.
        assigned = env.ring.indices(self.names)
        self._groups: dict[int, np.ndarray] = {
            int(idx): np.flatnonzero(assigned == idx)
            for idx in np.unique(assigned)}
        host = make_public_host(sim, env.cloud, f"lane{region}",
                                f"7.1.{region // 250}.{(region % 250) + 1}",
                                network="7.0.0.0/8")
        sock = host.udp.bind(LANE_PORT)
        self.rpc = RpcEndpoint(host.stack, sock, name=f"lane{region}")
        sock.handler = self.rpc.handle_datagram
        # Synthetic per-endpoint columns: deterministic addresses, NAT
        # mappings, and attribute draws spread across the CAN space.
        idx = base_index + np.arange(count, dtype=np.int64)
        self.public_ip = (0x0B000000 + idx).astype(np.uint32)
        self.public_port = (20000 + idx % 40000).astype(np.uint16)
        self.private_ip = np.full(count, 0xC0A80002, dtype=np.uint32)
        self.private_port = np.full(count, 4242, dtype=np.uint16)
        self.nat_code = np.full(count, _NAT_CODE, dtype=np.uint8)
        attrs = SPEC.attributes
        self.attr_values = np.empty((count, len(attrs)), dtype=np.float32)
        for k, (_name, lo, hi) in enumerate(attrs):
            self.attr_values[:, k] = self.rng.uniform(lo, hi, size=count)

    def _batch(self, ks: np.ndarray) -> Registration:
        return Registration(
            names=tuple(map(self.names.__getitem__, ks.tolist())),
            public_ip=self.public_ip[ks],
            public_port=self.public_port[ks],
            private_ip=self.private_ip[ks],
            private_port=self.private_port[ks],
            nat_code=self.nat_code[ks],
            alloc_stride=np.zeros(len(ks), dtype=np.uint16),
            attr_values=self.attr_values[ks],
            region=self.region,
        )

    def register(self, batch_size: int = 256, max_attempts: int = 10):
        """Process: register every endpoint of this lane, grouped by the
        fleet's consistent-hash assignment, with jittered backoff when a
        server's admission bucket sheds the batch. Returns the number of
        endpoints acknowledged."""
        registered = 0
        for idx in sorted(self._groups):
            server_ip = self.env.rendezvous_addr(idx)
            ks = self._groups[idx]
            for start in range(0, len(ks), batch_size):
                chunk = ks[start:start + batch_size]
                body = self._batch(chunk)
                for attempt in range(max_attempts):
                    try:
                        yield from self.rpc.call(
                            server_ip, RENDEZVOUS_PORT, "rvz.register",
                            body, timeout=10.0, retries=2)
                    except RpcError as exc:
                        if "AdmissionReject" not in str(exc):
                            raise
                        self.rejected_batches += 1
                        delay = min(0.2 * 2.0 ** attempt, 10.0)
                        yield self.sim.timeout(
                            delay * (0.5 + float(self.rng.random())))
                    except RpcTimeout:
                        self.failed += len(chunk)
                        break
                    else:
                        registered += len(chunk)
                        break
                else:
                    self.failed += len(chunk)
        self.done_at = self.sim.now
        return registered

    def keepalive_loop(self, interval: float = 20.0, batch_size: int = 4096):
        """Process: batched keepalive sweeps for every endpoint of this
        lane. One calendar timer and a handful of ``rvz.keepalive``
        RPCs per interval replace 10^5-10^6 per-host keepalive timers —
        the per-lane scheduler that keeps calendar pressure flat as the
        table grows."""
        while True:
            yield self.sim.timeout(interval)
            for idx in sorted(self._groups):
                server_ip = self.env.rendezvous_addr(idx)
                ks = self._groups[idx]
                for start in range(0, len(ks), batch_size):
                    names = tuple(self.names[k] for k in
                                  ks[start:start + batch_size].tolist())
                    try:
                        result = yield from self.rpc.call(
                            server_ip, RENDEZVOUS_PORT,
                            "rvz.keepalive", _Keepalive(names),
                            timeout=10.0, retries=2)
                    except (RpcError, RpcTimeout):
                        continue
                    self.keepalives_acked += int(result[1])
            self.keepalive_sweeps += 1


def build_storm_lanes(sim, env: WavnetEnvironment, n_endpoints: int,
                      n_regions: int) -> list[StormLane]:
    """One lane per region, endpoints split as evenly as possible."""
    lanes = []
    base = 0
    for r in range(n_regions):
        count = n_endpoints // n_regions + (1 if r < n_endpoints % n_regions else 0)
        lanes.append(StormLane(sim, env, region=r, count=count, base_index=base))
        base += count
    return lanes


def steady_state_bytes(env: WavnetEnvironment) -> int:
    """Accounting of what the control plane keeps per *idle* endpoint:
    the table's numpy columns; the name index — its dict and list, the
    name strings, and the row-id ints the dict holds as values (ints
    above 256 are not interned); and the CAN handle stores, primaries
    and replicas, each its int64 array's ``nbytes``. Built-host object
    stacks are deliberately excluded — they are the non-idle hosts.

    ``sys.getsizeof`` of the dict and list counts their over-allocation,
    so the total (and the storm's payload) depends on how they grew:
    row admission must grow ``_names`` one ``append`` at a time, never
    with ``extend``."""
    table = env.table
    total = table.nbytes
    total += sys.getsizeof(table._ids) + sys.getsizeof(table._names)
    total += sum(map(sys.getsizeof, table._names))
    total += sum(map(sys.getsizeof, filter((256).__lt__, table._ids.values())))
    for server in env.rendezvous:
        can = server.can
        total += can.handles.array.nbytes
        total += sum(reps.array.nbytes for reps in can.handle_replicas.values())
    return int(total)


def control_counters(env: WavnetEnvironment) -> dict:
    """Admission and CAN counters summed over the env's rendezvous
    servers, under the payload keys the storm scenarios report."""
    metrics = env.sim.metrics

    def total(path: str) -> int:
        return sum(int(metrics.value(f"{server.host.name}.{path}"))
                   for server in env.rendezvous)

    return {"admission_accepted": total("rvz.admission.accepted"),
            "admission_rejected": total("rvz.admission.rejected"),
            "can_splits": total("can.splits"),
            "can_merges": total("can.merges"),
            "can_remerges": total("can.remerges"),
            "handles_stored": total("can.handles.stored"),
            "handles_dropped": total("can.handles.dropped")}


def _join(procs):
    results = []
    for proc in procs:
        results.append((yield proc))
    return results


def _punch_probe(sim, env: WavnetEnvironment, pairs, latencies: list):
    """Process: punch each pair through the storm-loaded control plane,
    recording wall (sim) time from connect() to an established tunnel."""
    for a, b in pairs:
        t0 = sim.now
        try:
            yield sim.process(env.connect_pair(a, b))
        except (RpcError, RpcTimeout):
            continue
        latencies.append(sim.now - t0)
    return latencies


@scenario("registration_storm")
def registration_storm(seed: int = 0, n_endpoints: int = 10_000,
                       n_rendezvous: int = 4, n_regions: int = 4,
                       batch: int = 256,
                       admission_rate: float | None = None,
                       admission_burst: float | None = None,
                       replication_factor: int | None = 1,
                       hot_zone_limit: int | None = None,
                       punch_pairs: int = 2, outage_region: int = 0,
                       settle: float = 2.0,
                       keepalive_interval: float | None = None):
    """Fill the table, kill a region, reconnect it — see module docs."""
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, n_rendezvous=n_rendezvous,
                            admission_rate=admission_rate,
                            admission_burst=admission_burst,
                            replication_factor=replication_factor,
                            hot_zone_limit=hot_zone_limit)
    for i in range(2 * punch_pairs):
        env.add_host(f"p{i}", rendezvous_index=i % n_rendezvous)
    env.up()
    lanes = build_storm_lanes(sim, env, n_endpoints, n_regions)

    # Phase 1: fill.
    t0 = sim.now
    procs = [sim.process(lane.register(batch), name=f"storm-fill:r{lane.region}")
             for lane in lanes]
    filled = sum(sim.run_coro(_join(procs)))
    fill_elapsed = max(sim.now - t0, 1e-9)
    loads_filled = env.fleet_load()
    if keepalive_interval is not None:
        for lane in lanes:
            sim.process(lane.keepalive_loop(keepalive_interval),
                        name=f"storm-keepalive:r{lane.region}")

    # Phase 2: regional outage (table-resident — no object stacks involved).
    injector = FaultInjector(sim)
    downed = injector.regional_outage(env.table, outage_region)

    # Phase 3: mass reconnect + punch probes under the storm.
    t1 = sim.now
    storm_lane = lanes[outage_region]
    reconnect_proc = sim.process(storm_lane.register(batch),
                                 name="storm-reconnect")
    punch_latencies: list[float] = []
    pairs = [(f"p{2 * i}", f"p{2 * i + 1}") for i in range(punch_pairs)]
    punch_proc = sim.process(
        _punch_probe(sim, env, pairs, punch_latencies), name="storm-punch")
    reconnected, _ = sim.run_coro(_join([reconnect_proc, punch_proc]))
    reconnect_elapsed = max(storm_lane.done_at - t1, 1e-9)
    if settle > 0:
        sim.run(until=sim.now + settle)
    loads_final = env.fleet_load()

    bytes_total = steady_state_bytes(env)
    payload = {
        "n_endpoints": n_endpoints,
        "n_rendezvous": n_rendezvous,
        "n_regions": n_regions,
        "rows": len(env.table),
        "registered": env.table.registered_count,
        "filled": filled,
        "fill_elapsed_s": fill_elapsed,
        "fill_ops_per_sec": filled / fill_elapsed,
        "outage_endpoints": len(downed),
        "reconnected": reconnected,
        "reconnect_elapsed_s": reconnect_elapsed,
        "reconnect_ops_per_sec": reconnected / reconnect_elapsed,
        "rejected_batches": sum(lane.rejected_batches for lane in lanes),
        "punch_latency_s": punch_latencies,
        "keepalive_sweeps": sum(lane.keepalive_sweeps for lane in lanes),
        "keepalives_acked": sum(lane.keepalives_acked for lane in lanes),
        **control_counters(env),
        "fleet_load_filled": loads_filled,
        "fleet_load_final": loads_final,
        "steady_state_bytes": bytes_total,
        "bytes_per_endpoint": bytes_total / max(len(env.table), 1),
    }
    return sim, payload

"""Tests for the PDES plane: windowed execution, the cloud boundary,
partition ownership, fleet-assigned rendezvous routing, CAN zone
re-merge, keepalive sweeps — and the headline property,
serial-vs-partitioned byte-identical envelopes for ``pdes_mesh``.
"""

import signal

import pytest

from repro.exp.spec import ExperimentSpec, envelope_bytes, run_spec, scenario
from repro.net.addresses import BROADCAST_MAC, IPv4Address, mac_factory
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.net.wan import WanCloud
from repro.overlay.fleet import HashRing
from repro.scenarios.storm import StormLane
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import SimulationError, Simulator
from repro.sim.pdes import (
    PartitionContext,
    PdesError,
    execute_spec,
    merge_trace_records,
    pdes_merger,
    run_partitioned,
)


# -- windowed execution (engine) ----------------------------------------


class TestRunWindow:
    def test_end_is_exclusive(self):
        sim = Simulator(seed=1)
        fired = []
        for t in (0.5, 1.0, 1.5):
            sim.call_at(t, lambda t=t: fired.append(t))
        sim.run_window(1.0)
        assert fired == [0.5]
        assert sim.now == 1.0

    def test_clock_advances_to_end_without_events(self):
        sim = Simulator(seed=1)
        sim.run_window(4.0)
        assert sim.now == 4.0

    def test_backward_window_rejected(self):
        sim = Simulator(seed=1)
        sim.run_window(2.0)
        with pytest.raises(SimulationError):
            sim.run_window(1.0)

    def test_final_inclusive_run_picks_up_horizon_events(self):
        # The pdes loop's last step: run(until=h) after run_window(h)
        # dispatches events at exactly h, once.
        sim = Simulator(seed=1)
        fired = []
        sim.call_at(3.0, lambda: fired.append("h"))
        sim.run_window(3.0)
        assert fired == []
        sim.run(until=3.0)
        assert fired == ["h"]


# -- partition context & merger registry --------------------------------


class TestPartitionContext:
    def test_round_robin_ownership(self):
        ctx = PartitionContext(3, 1)
        assert not ctx.serial
        assert [ctx.owner_of(g) for g in range(6)] == [0, 1, 2, 0, 1, 2]
        assert ctx.owned_groups(6) == [1, 4]
        assert ctx.owns(4) and not ctx.owns(3)

    def test_serial_owns_everything(self):
        ctx = PartitionContext(4)
        assert ctx.serial
        assert ctx.owned_groups(5) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionContext(0)
        with pytest.raises(ValueError):
            PartitionContext(2, 2)

    def test_merger_duplicate_registration_rejected(self):
        @pdes_merger("_test_pdes_dup")
        def merge(shards):
            return {}

        pdes_merger("_test_pdes_dup")(merge)  # same fn: idempotent
        with pytest.raises(ValueError, match="already registered"):
            pdes_merger("_test_pdes_dup")(lambda shards: {})


class TestTraceMerge:
    def test_stable_time_order_with_spans(self):
        a = [{"kind": "event", "t": 1.0, "name": "a1"},
             {"kind": "span", "t0": 0.5, "t1": 2.0, "name": "a2"}]
        b = [{"kind": "event", "t": 1.5, "name": "b1"}]
        merged = merge_trace_records([a, b])
        assert [r["name"] for r in merged] == ["a1", "b1", "a2"]


# -- cloud boundary (wan) -----------------------------------------------


_mint = mac_factory()


def _frame(dst):
    # The smallest real payload: an empty UDP datagram in IPv4 (the frame
    # pads it to the 46-byte Ethernet minimum).
    packet = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                  UdpDatagram(1, 2, Payload(0)))
    return EthernetFrame(src=_mint(), dst=dst, ethertype=0x0800, payload=packet)


class TestCloudBoundary:
    def _cloud(self):
        sim = Simulator(seed=0)
        cloud = WanCloud(sim, default_latency=0.025)
        cloud.attach("local")
        cloud.declare_remote_site("far", 1)
        cloud.set_latency("local", "far", 0.03)
        return sim, cloud

    def test_remote_declaration(self):
        _, cloud = self._cloud()
        assert cloud.is_remote("far") and not cloud.is_remote("local")
        assert cloud.min_remote_latency() == 0.03
        with pytest.raises(ValueError, match="attached locally"):
            cloud.declare_remote_site("local", 1)

    def test_unicast_to_remote_site_is_captured(self):
        sim, cloud = self._cloud()
        far_mac = _mint()
        cloud.mac_table[far_mac] = "far"
        cloud.on_frame(_frame(far_mac), cloud.ports["local"])
        records = cloud.drain_outbox()
        assert len(records) == 1
        partition, deliver, send, src, seq, dst, frame = records[0]
        assert (partition, src, dst) == (1, "local", "far")
        assert deliver == sim.now + 0.03
        assert cloud.drain_outbox() == []  # drained
        assert cloud.frames_carried == 1   # counted on the sender

    def test_broadcast_emits_one_flood_record_per_partition(self):
        _, cloud = self._cloud()
        cloud.declare_remote_site("far2", 1)   # same partition: one record
        cloud.declare_remote_site("far3", 2)
        cloud.on_frame(_frame(BROADCAST_MAC), cloud.ports["local"])
        records = cloud.drain_outbox()
        assert sorted(r[0] for r in records) == [1, 2]
        assert all(r[1] is None and r[5] is None for r in records)

    def test_inject_learns_source_mac_and_schedules(self):
        sim, cloud = self._cloud()
        delivered = []
        # The cloud-side port transmits toward the site; stand in for the
        # access link with a collector.
        cloud.ports["local"].connect(delivered.append)
        frame = _frame(_mint())
        cloud.inject_remote_frame("far", "local", 0.03, frame)
        assert cloud.mac_table[frame.src] == "far"
        assert cloud.frames_carried == 0  # sender already counted it
        sim.run(until=0.05)
        assert delivered == [frame]
        assert sim.now == 0.05

    def test_expand_flood_uses_local_latency_table(self):
        _, cloud = self._cloud()
        cloud.attach("other")
        cloud.set_latency("far", "other", 0.027)
        dests = dict(cloud.expand_flood("far", 10.0))
        assert dests == {"local": 10.0 + 0.03, "other": 10.0 + 0.027}


# -- fleet-aware rendezvous assignment (satellite 1) --------------------


class TestHashRing:
    def test_stable_across_instances(self):
        names = [f"rvz{i}" for i in range(4)]
        a, b = HashRing(names), HashRing(names)
        for endpoint in ("alice", "bob", "s3h7", "host-17"):
            assert a.index(endpoint) == b.index(endpoint)

    def test_order_is_a_permutation_starting_at_primary(self):
        ring = HashRing([f"rvz{i}" for i in range(4)])
        for endpoint in ("alice", "bob", "s3h7"):
            order = ring.order(endpoint)
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == ring.index(endpoint)

    def test_endpoints_spread_over_all_servers(self):
        ring = HashRing([f"rvz{i}" for i in range(4)])
        counts = [0] * 4
        for j in range(256):
            counts[ring.index(f"h{j}")] += 1
        assert all(c > 0 for c in counts)

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestFleetAssignment:
    def test_default_endpoint_is_fleet_assigned(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        host_id = env.add_endpoint("endpoint-a")
        cfg = env.table.site_config(host_id)
        assert cfg["fleet_assigned"] is True
        assert cfg["rendezvous_index"] == env.ring.index("endpoint-a")
        assert env.assign_rendezvous("endpoint-a") == env.ring.index("endpoint-a")

    def test_explicit_index_overrides_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        host_id = env.add_endpoint("endpoint-b", rendezvous_index=1)
        cfg = env.table.site_config(host_id)
        assert cfg["fleet_assigned"] is False
        assert cfg["rendezvous_index"] == 1

    def test_static_ring_agrees_with_live_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        live = HashRing([s.host.name for s in env.rendezvous])
        for endpoint in ("a", "b", "c", "host-17", "s2h9"):
            assert env.ring.index(endpoint) == live.index(endpoint)

    def test_controlless_env_derives_same_addresses(self):
        sim1 = Simulator(seed=2)
        full = WavnetEnvironment(sim1, n_rendezvous=2)
        sim2 = Simulator(seed=2)
        bare = WavnetEnvironment(sim2, n_rendezvous=2, build_control=False,
                                 control_partition=0)
        assert bare.stun is None
        assert bare.cloud.is_remote("rvz0")
        for i in range(2):
            assert bare.rendezvous_addr(i) == full.rendezvous_addr(i)
        assert bare.stun_primary_ip == full.stun_primary_ip


# -- CAN zone re-merge under drain (satellite 2) ------------------------


class TestCanRemerge:
    def test_zones_remerge_when_load_drains(self):
        sim = Simulator(seed=13)
        env = WavnetEnvironment(sim, n_rendezvous=2, replication_factor=1,
                                hot_zone_limit=4)
        env.up()
        lane = StormLane(sim, env, region=0, count=48, base_index=0)
        sim.run_coro(lane.register(batch_size=16))

        def can_stats(name):
            return sum(int(sim.metrics.value(f"{s.can.node_id}.can.{name}"))
                       for s in env.rendezvous)

        zones_before = sum(len(s.can.zones) for s in env.rendezvous)
        assert can_stats("splits") >= 1
        assert zones_before > len(env.rendezvous)

        # Drain: drop every stored handle, then let the ping loops run a
        # few maintenance rounds.
        for s in env.rendezvous:
            s.can.handles.clear()
            s.can.handle_replicas.clear()
        sim.run(until=sim.now + 80.0)

        zones_after = sum(len(s.can.zones) for s in env.rendezvous)
        assert can_stats("remerges") >= 1
        assert zones_after < zones_before


# -- batched keepalive sweeps (satellite 3) -----------------------------


class TestKeepaliveSweeps:
    def test_storm_lane_sweeps_batch_keepalives(self):
        spec = ExperimentSpec(
            "registration_storm",
            params={"n_endpoints": 60, "n_rendezvous": 2, "n_regions": 2,
                    "batch": 16, "punch_pairs": 1, "settle": 30.0,
                    "keepalive_interval": 5.0},
            seed=7)
        payload = run_spec(spec)["payload"]
        assert payload["keepalive_sweeps"] > 0
        assert payload["keepalives_acked"] > 0
        # Sweeps are batched: far fewer RPCs than endpoint-keepalives.
        assert payload["keepalive_sweeps"] < payload["keepalives_acked"]


# -- the headline property: byte-identical envelopes --------------------

# The plain two-site pair; three partitions over four sites (uneven
# ownership, the control partition also owns a site group); two hosts
# per site.
PDES_GOLDENS = [
    pytest.param({"partitions": 2, "n_sites": 2, "duration": 2.0,
                  "horizon": 26.0}, id="pdes_mesh"),
    pytest.param({"partitions": 3, "n_sites": 4, "duration": 1.0,
                  "horizon": 24.0}, id="pdes_mesh-3p-4sites"),
    pytest.param({"partitions": 2, "n_sites": 3, "hosts_per_site": 2,
                  "duration": 1.0, "horizon": 24.0}, id="pdes_mesh-2p-3x2"),
]


@pytest.mark.parametrize("params", PDES_GOLDENS)
def test_partitioned_envelope_matches_serial(params):
    spec = ExperimentSpec("pdes_mesh", params=params, seed=5)
    serial = run_spec(spec)
    part = run_partitioned(spec)
    assert envelope_bytes(part) == envelope_bytes(serial)
    assert part["obs"]["events_dispatched"] > 0
    assert part["payload"]  # non-trivial result, not an empty dict


_SMALL_MESH = {"n_sites": 2, "duration": 0.5, "horizon": 22.0}


class TestExecuteSpec:
    def test_routes_partitioned_specs_through_pdes(self):
        spec = ExperimentSpec("pdes_mesh",
                              params={"partitions": 2, **_SMALL_MESH}, seed=3)
        assert envelope_bytes(execute_spec(spec)) == \
            envelope_bytes(run_partitioned(spec))

    def test_partitions_one_runs_serial(self):
        spec = ExperimentSpec("pdes_mesh",
                              params={"partitions": 1, **_SMALL_MESH}, seed=3)
        assert envelope_bytes(execute_spec(spec)) == \
            envelope_bytes(run_spec(spec))

    def test_worker_error_propagates(self):
        spec = ExperimentSpec("pdes_mesh",
                              params={"partitions": 2, "bogus_param": 1},
                              seed=3)
        with pytest.raises(PdesError, match="bogus_param"):
            run_partitioned(spec)


# -- a worker message the coordinator cannot load -----------------------


def _explode():
    raise RuntimeError("shard refuses to load")


class _Unloadable:
    def __reduce__(self):
        return (_explode, ())


def _unloadable_shards(seed=0, partitions=1, _partition=None):
    ctx = _partition or PartitionContext(int(partitions))
    return Simulator(seed=seed), {g: _Unloadable() for g in ctx.owned_groups(2)}


class _Hung(BaseException):
    """Raised by the test's alarm; not an ``Exception`` so that no
    handler between here and the coordinator loop can swallow it."""


def _raise_hung(signum, frame):
    raise _Hung("run_partitioned did not return")


def test_unloadable_worker_message_fails_instead_of_hanging():
    # The shard pickles in the worker and raises while the coordinator
    # unpickles it; the worker has exited 0 by then, so nothing is dead.
    scenario("_test_pdes_unloadable")(_unloadable_shards)
    pdes_merger("_test_pdes_unloadable")(dict)
    spec = ExperimentSpec("_test_pdes_unloadable", params={"partitions": 2})
    previous = signal.signal(signal.SIGALRM, _raise_hung)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with pytest.raises(PdesError, match="shard refuses to load"):
            run_partitioned(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

"""Tests for the CAN overlay: join, routing, put/get, leave, RPC layer,
zone re-merge under drain and batched keepalive sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hoststate import SPEC, HostTable, Registration
from repro.exp.spec import ExperimentSpec, run_spec
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.wan import WanCloud
from repro.overlay.can import CanNode, HandleStore, NeighborInfo
from repro.overlay.can.routing import RouteOp, next_hops
from repro.overlay.resources import ConnectionInfo
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.overlay.space import Zone
from repro.scenarios.builder import make_public_host
from repro.scenarios.storm import StormLane, registration_storm
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


REACH = (IPv4Address("8.0.0.1"), 20001)


def make_conn_info(ip="8.0.0.1", port=20001):
    return ConnectionInfo(IPv4Address("9.0.0.1"), 4001, IPv4Address(ip), port,
                          IPv4Address("192.168.1.10"), 6000, NatType.PORT_RESTRICTED)


def build_overlay(sim, n_nodes, cloud_latency=0.005):
    cloud = WanCloud(sim, default_latency=cloud_latency)
    table = HostTable(sim)  # the one directory every node shares
    nodes = []
    for i in range(n_nodes):
        host = make_public_host(sim, cloud, f"rvz{i}", f"9.0.{i // 250}.{(i % 250) + 1}",
                                network="9.0.0.0/8")
        nodes.append(CanNode(host, table))
    nodes[0].bootstrap()

    def joiner(sim):
        for node in nodes[1:]:
            yield sim.process(node.join_via(nodes[0].ip))

    p = sim.process(joiner(sim))
    sim.run(until=p)
    return cloud, nodes


def register_row(node, name, point) -> int:
    """Write the table row for ``name``. ``point`` is in CAN space; the
    spec's attribute ranges scale it back."""
    attrs = {attr: lo + x * (hi - lo)
             for (attr, lo, hi), x in zip(SPEC.attributes, point)}
    (host_id,) = node.table.register(
        Registration.of(name, make_conn_info(), attrs),
        (IPv4Address("9.0.0.1"), 4001), REACH, node.sim.now)
    return int(host_id)


def put(node, name, point):
    """Process: what a rendezvous server does on ``rvz.register`` — write
    the table row, then publish its handle through ``node``."""
    return node.put_ids([register_row(node, name, point)])


class TestRpcLayer:
    def build_pair(self, sim):
        cloud = WanCloud(sim, default_latency=0.005)
        a = make_public_host(sim, cloud, "a", "9.0.0.1", network="9.0.0.0/8")
        b = make_public_host(sim, cloud, "b", "9.0.0.2", network="9.0.0.0/8")
        ep_a = RpcEndpoint(a.stack, a.udp.bind(5000), "a")
        ep_b = RpcEndpoint(b.stack, b.udp.bind(5000), "b")
        for ep in (ep_a, ep_b):  # the socket's owner routes datagrams to RPC
            ep.sock.handler = ep.handle_datagram
        return ep_a, ep_b

    def test_sync_handler_roundtrip(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)
        ep_b.register("echo", lambda body, ip, port: ("echoed", body))

        def caller(sim):
            result = yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "echo", 42)
            return result

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == ("echoed", 42)

    def test_generator_handler(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def slow(body, ip, port):
            yield sim.timeout(0.5)
            return body * 2

        ep_b.register("slow", slow)

        def caller(sim):
            t0 = sim.now
            result = yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "slow", 21)
            return result, sim.now - t0

        p = sim.process(caller(sim))
        sim.run(until=10)
        result, elapsed = p.value
        assert result == 42
        assert elapsed >= 0.5

    def test_handler_error_propagates(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def bad(body, ip, port):
            raise ValueError("nope")

        ep_b.register("bad", bad)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "bad", None)
            except RpcError as exc:
                return str(exc)

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert "nope" in p.value

    def test_unknown_kind_is_error(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "missing", None)
            except RpcError:
                return "error"

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == "error"

    def test_timeout_after_retries(self):
        sim = Simulator()
        ep_a, _ep_b = self.build_pair(sim)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.99"), 5000, "x", None,
                                     timeout=0.2, retries=2)
            except RpcTimeout:
                return sim.now

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == pytest.approx(0.4, abs=0.05)

    def test_duplicate_handler_rejected(self):
        sim = Simulator()
        ep_a, _ = self.build_pair(sim)
        ep_a.register("k", lambda b, i, p: None)
        with pytest.raises(RuntimeError):
            ep_a.register("k", lambda b, i, p: None)

    def test_notify_fire_and_forget(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)
        seen = []
        ep_b.register("note", lambda body, ip, port: seen.append(body))
        ep_a.notify(IPv4Address("9.0.0.2"), 5000, "note", "hello")
        sim.run(until=1)
        assert seen == ["hello"]


class TestCanOverlay:
    def test_bootstrap_owns_everything(self):
        sim = Simulator()
        _cloud, nodes = build_overlay(sim, 1)
        assert nodes[0].owns((0.3, 0.7))
        assert nodes[0].owns((0.99, 0.01))

    def test_zones_partition_space_after_joins(self):
        sim = Simulator(seed=1)
        _cloud, nodes = build_overlay(sim, 8)
        import numpy as np
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = tuple(rng.random(2))
            owners = [n for n in nodes if n.owns(p)]
            assert len(owners) == 1, f"{p} owned by {[o.node_id for o in owners]}"

    def test_total_volume_is_one(self):
        sim = Simulator(seed=2)
        _cloud, nodes = build_overlay(sim, 8)
        total = sum(z.volume() for n in nodes for z in n.zones)
        assert total == pytest.approx(1.0)

    def test_neighbor_symmetry(self):
        sim = Simulator(seed=3)
        _cloud, nodes = build_overlay(sim, 6)
        sim.run(until=sim.now + 30)  # let pings settle
        by_id = {n.node_id: n for n in nodes}
        for n in nodes:
            for other_id in n.neighbors:
                assert n.node_id in by_id[other_id].neighbors, \
                    f"{other_id} missing backlink to {n.node_id}"

    def test_put_get_roundtrip_across_overlay(self):
        sim = Simulator(seed=4)
        _cloud, nodes = build_overlay(sim, 8)
        point = (0.123, 0.876)

        def runner(sim):
            yield from put(nodes[3], "host-x", point)
            got = yield from nodes[6].route("get", point, 4)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        (record,) = p.value
        assert record.host_name == "host-x"
        assert record.point == pytest.approx(point)
        assert record.conn.public_port == make_conn_info().public_port

    def test_get_returns_nearest_records(self):
        sim = Simulator(seed=5)
        _cloud, nodes = build_overlay(sim, 4)

        def runner(sim):
            for i, point in enumerate([(0.1, 0.1), (0.12, 0.12), (0.9, 0.9)]):
                yield from put(nodes[0], f"h{i}", point)
            got = yield from nodes[0].route("get", (0.11, 0.11), 2)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        names = {r.host_name for r in p.value}
        assert names <= {"h0", "h1"}

    def test_routing_hop_latency_is_real(self):
        """Routing across the overlay takes at least one cloud RTT."""
        sim = Simulator(seed=7)
        _cloud, nodes = build_overlay(sim, 8, cloud_latency=0.020)
        # Find a node and a point it does NOT own.
        src = nodes[5]
        point = (0.01, 0.01)
        if src.owns(point):
            src = nodes[0] if not nodes[0].owns(point) else nodes[1]

        def runner(sim):
            t0 = sim.now
            yield from src.route("get", point, 1)
            return sim.now - t0

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert p.value >= 0.040  # at least one 20 ms hop each way

    def test_graceful_leave_hands_over_records(self):
        sim = Simulator(seed=8)
        _cloud, nodes = build_overlay(sim, 4)
        point = (0.77, 0.77)

        def runner(sim):
            yield from put(nodes[0], "kept", point)
            owner = next(n for n in nodes if n.owns(point))
            yield sim.process(owner.leave())
            # Someone else must own the point and still have the entry.
            survivors = [n for n in nodes if n.joined]
            got = yield from survivors[0].route("get", point, 8)
            return got, sum(z.volume() for n in survivors for z in n.zones)

        p = sim.process(runner(sim))
        sim.run(until=p)
        records, volume = p.value
        assert "kept" in {r.host_name for r in records}
        assert volume == pytest.approx(1.0)

    def test_record_ttl_expiry(self):
        sim = Simulator(seed=9)
        _cloud, nodes = build_overlay(sim, 2)
        for n in nodes:
            n.record_ttl = 5.0

        def runner(sim):
            yield from put(nodes[0], "fleeting", (0.6, 0.6))
            fresh = yield from nodes[1].route("get", (0.6, 0.6), 8)
            yield sim.timeout(30.0)
            stale = yield from nodes[1].route("get", (0.6, 0.6), 8)
            return fresh, stale

        p = sim.process(runner(sim))
        sim.run(until=p)
        fresh, stale = p.value
        assert [r.host_name for r in fresh] == ["fleeting"]
        assert stale == ()  # never kept alive: last_seen fell out of the TTL

    def test_routing_scales_to_32_nodes(self):
        sim = Simulator(seed=10)
        _cloud, nodes = build_overlay(sim, 32)

        def runner(sim):
            yield from put(nodes[17], "far", (0.95, 0.05))
            got = yield from nodes[31].route("get", (0.95, 0.05), 2)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert "far" in {r.host_name for r in p.value}


class TestReplication:
    """Every handle a node owns is copied at its neighbors under the
    node's id — however the node came to own it, whenever the neighbor
    appeared."""

    def settle(self, sim, node, intervals=5.0):
        sim.run(until=sim.now + intervals * node.ping_interval)

    def test_second_crash_keeps_what_the_first_takeover_saved(self):
        sim = Simulator(seed=11)
        _cloud, nodes = build_overlay(sim, 3)
        point = (0.3, 0.7)
        sim.run_coro(put(nodes[0], "twice", point))
        handle = nodes[0].table.handle(nodes[0].table.lookup("twice"))
        for _crash in range(2):
            self.settle(sim, nodes[0], 2.0)  # a maintenance sweep passes
            owner = next(n for n in nodes if n.joined and n.owns(point))
            others = [n for n in nodes if n.joined and n is not owner]
            assert all(handle in n.handle_replicas[owner.node_id]
                       for n in others)
            owner.crash()
            self.settle(sim, nodes[0])  # detection + takeover
        (last,) = [n for n in nodes if n.joined]
        assert handle in last.handles
        last.table.touch(("twice",), sim.now, REACH, -1)  # a keepalive
        assert [r.host_name for r in last._handle_records(point, 4)] == ["twice"]

    def test_late_joiner_receives_a_copy_of_older_entries(self):
        sim = Simulator(seed=12)
        _cloud, nodes = build_overlay(sim, 1)
        for i, point in enumerate([(0.1, 0.1), (0.9, 0.9)]):
            sim.run_coro(put(nodes[0], f"old{i}", point))
        late = CanNode(make_public_host(sim, _cloud, "late", "9.0.0.77",
                                        network="9.0.0.0/8"), nodes[0].table)
        sim.run_coro(late.join_via(nodes[0].ip))
        self.settle(sim, late, 2.0)
        # Each side holds the other's entries: whoever dies, none is lost.
        assert nodes[0].handles and late.handles
        assert set(late.handle_replicas[nodes[0].node_id]) == set(nodes[0].handles)
        assert set(nodes[0].handle_replicas[late.node_id]) == set(late.handles)

    def test_moved_entry_is_filed_under_its_new_owner_only(self):
        sim = Simulator(seed=13)
        _cloud, nodes = build_overlay(sim, 3)
        watcher = nodes[2]
        watcher._on_replica_ids(("a", (7, 8, 9)), None, None)
        watcher._on_replica_ids(("b", (8,)), None, None)
        assert set(watcher.handle_replicas["a"]) == {7, 9}
        assert set(watcher.handle_replicas["b"]) == {8}

    def test_silent_hosts_do_not_count_toward_zone_load(self):
        sim = Simulator(seed=14)
        _cloud, (node,) = build_overlay(sim, 1)
        sim.run_coro(put(node, "quiet", (0.5, 0.5)))
        (zone,) = node.zones
        assert node.zone_load(zone) == 1
        sim.run(until=sim.now + node.record_ttl + 1.0)
        assert node.zone_load(zone) == 0
        assert len(node.handles) == 1  # still registered: a keepalive revives it
        node.table.touch(("quiet",), sim.now, REACH, -1)
        assert node.zone_load(zone) == 1


class TestHotZoneSplit:
    def test_lone_registrations_split_a_zone_once_it_is_over_the_limit(self):
        """No batch is needed: the row that takes the store over
        ``hot_zone_limit`` triggers the scan, the ones before it do not."""
        sim = Simulator(seed=15)
        _cloud, nodes = build_overlay(sim, 2)
        for n in nodes:
            n.hot_zone_limit = 3
        owner = next(n for n in nodes if n.owns((0.2, 0.2)))
        splits = sim.metrics.get(f"{owner.node_id}.can.splits")
        (zone,) = owner.zones
        inside = [tuple(lo + (hi - lo) * f for lo, hi in zip(zone.lows, zone.highs))
                  for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for i, point in enumerate(inside[:3]):
            sim.run_coro(put(owner, f"h{i}", point))
        assert splits.value == 0 and owner._split_mark < 0
        for i, point in enumerate(inside[3:], start=3):
            sim.run_coro(put(owner, f"h{i}", point))
        sim.run(until=sim.now + 1.0)
        assert splits.value >= 1
        assert sum(len(n.handles) for n in nodes) == 5  # shed, not lost


def reference_next_hop(node, point) -> int:
    """The scalar greedy rule that :func:`next_hops` replaced, kept
    here as the oracle: start from our own distance, walk the neighbors in
    insertion order, take one only when it is closer by more than 1e-15.
    Returns the neighbor's position in ``node.neighbors``, -1 for none."""
    best = -1
    best_d = min((z.distance_to_point(point) for z in node.zones),
                 default=float("inf"))
    for k, info in enumerate(node.neighbors.values()):
        d = min((z.distance_to_point(point) for z in info.zones),
                default=float("inf"))
        if d < best_d - 1e-15:
            best_d, best = d, k
    return best


def node_hops(node, pts):
    """:func:`next_hops` from ``node``: indexes into ``node.neighbors``."""
    return next_hops(node.zones, [i.zones for i in node.neighbors.values()], pts)


def lone_node():
    _cloud, (node,) = build_overlay(Simulator(), 1)
    return node


def set_neighbors(node, zone_lists) -> None:
    node.neighbors = {
        f"n{k}": NeighborInfo(f"n{k}", IPv4Address(f"9.0.1.{k + 1}"), 4000, zones=zones)
        for k, zones in enumerate(zone_lists)}


class TestBatchRouting:
    @pytest.mark.parametrize("seed", range(12))
    def test_next_hops_is_the_scalar_rule_on_random_tables(self, seed):
        """Random tilings dealt to this node and 2-7 neighbors: several
        zones per owner, one neighbor announcing no zones, one repeating
        another's zones (exact ties everywhere it is closest), and points
        this node owns among the destinations."""
        rng = np.random.default_rng(seed)
        node = lone_node()
        leaves = [Zone.whole(node.dims)]
        for _ in range(int(rng.integers(6, 30))):
            leaves.extend(leaves.pop(int(rng.integers(len(leaves)))).split())
        n_owners = int(rng.integers(3, 9))
        dealt = [[] for _ in range(n_owners)]
        for leaf in leaves:
            dealt[int(rng.integers(n_owners))].append(leaf)
        node.zones = dealt[0]
        neighbor_zones = dealt[1:]
        neighbor_zones.insert(int(rng.integers(len(neighbor_zones) + 1)), [])
        twin = int(rng.integers(len(neighbor_zones)))
        neighbor_zones.append(list(neighbor_zones[twin]))
        set_neighbors(node, neighbor_zones)

        pts = rng.random((400, node.dims)).astype(np.float32).astype(np.float64)
        pts = np.vstack([pts, *(z.center() for z in node.zones)])
        hops = node_hops(node, pts)
        expected = [reference_next_hop(node, tuple(p)) for p in pts.tolist()]
        assert hops.tolist() == expected
        assert len(neighbor_zones) - 1 not in expected  # the twin never wins a tie
        owned = [i for i, p in enumerate(pts.tolist()) if node.owns(p)]
        assert len(owned) >= len(node.zones) and all(hops[i] == -1 for i in owned)
        infos = list(node.neighbors.values())
        for p, k in zip(pts[:20].tolist(), expected[:20]):
            assert node._next_hop(tuple(p)) is (infos[k] if k >= 0 else None)

    def test_exact_tie_goes_to_the_first_neighbor_in_insertion_order(self):
        node = lone_node()
        node.zones = [Zone((0.0, 0.0), (0.25, 1.0))]
        far = Zone((0.5, 0.0), (0.75, 1.0))
        set_neighbors(node, [[Zone((0.25, 0.0), (0.5, 1.0))], [far], [far]])
        pts = np.array([[0.6, 0.5], [0.3, 0.5], [0.1, 0.5]])
        assert node_hops(node, pts).tolist() == [1, 0, -1]
        node.neighbors["n1"] = node.neighbors.pop("n1")  # now after n2
        assert node_hops(node, pts).tolist() == [1, 0, -1]
        assert node._next_hop((0.6, 0.5)).node_id == "n2"

    def test_no_neighbors_means_no_hop(self):
        node = lone_node()
        node.zones = [Zone((0.0, 0.0), (0.5, 1.0))]
        assert node_hops(node, np.array([[0.7, 0.5], [0.2, 0.5]])).tolist() == [-1, -1]
        assert node._next_hop((0.7, 0.5)) is None
        node.zones = []  # not joined: infinitely far, any zone is closer
        set_neighbors(node, [[], [Zone.whole(2)]])
        assert node_hops(node, np.array([[0.7, 0.5]])).tolist() == [1]

    def test_forwarded_sub_batches_are_plain_tuples_in_first_handle_order(self):
        """A batch is split per next hop, hops ordered by their first
        handle and handles in batch order; each sub-batch travels as a
        tuple of ints behind the first point as a tuple of floats — an
        array body would change ``RouteOp.size`` (ndarray has ``.size``)."""
        sim = Simulator(seed=21)
        _cloud, nodes = build_overlay(sim, 6)
        node, table = nodes[0], nodes[0].table
        rng = np.random.default_rng(3)
        ids = [register_row(node, f"b{i}", point)
               for i, point in enumerate(rng.random((64, node.dims)).tolist())]
        sent = []
        call = node.rpc.call

        def spy(ip, port, method, body, **kw):
            sent.append((ip, body))
            return call(ip, port, method, body, **kw)

        node.rpc.call = spy
        assert sim.run_coro(node.put_ids(ids)) == ("stored", 64)
        assert sum(len(n.handles) for n in nodes) == 64

        hop_ip = {}  # the per-handle loop the grouping replaced
        for i in ids:
            point = tuple(table.coords[i].astype(np.float64).tolist())
            if not node.owns(point):
                hop_ip.setdefault(node._next_hop(point).ip,
                                  (point, []))[1].append(table.handle(i))
        assert len(hop_ip) > 1
        assert [(ip, op.point, op.body) for ip, op in sent] == [
            (ip, point, tuple(batch)) for ip, (point, batch) in hop_ip.items()]
        for _ip, op in sent:
            assert type(op.body) is tuple and {type(h) for h in op.body} == {int}
            assert {type(x) for x in op.point} == {float}
            assert op.size == 24 + 8 * node.dims + 16


_HANDLE = st.one_of(st.integers(0, 40), st.integers(2**32, 2**32 + 40),
                    st.integers(0, 2**62))
_BATCH = st.lists(_HANDLE, max_size=12)
_NEAR = st.integers(0, 1600)  # the range a drawn base of multiples of 4 fills
_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("update"), _BATCH),
    st.tuples(st.just("difference_update"), _BATCH),
    st.tuples(st.just("clear"), st.just([]))), max_size=30)


class TestHandleStore:
    @given(ops=_STORE_OPS, probes=st.lists(_HANDLE, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_python_set(self, ops, probes):
        """Random update / difference_update / clear sequences, with
        duplicates inside a batch, empty batches, removals of absent
        handles and handles of 2**32 and more: after every step the store
        has the set's length, membership and sorted contents."""
        store, oracle = HandleStore(), set()
        for op, batch in ops:
            if op == "clear":
                store.clear()
                oracle.clear()
            else:
                getattr(store, op)(batch)
                getattr(oracle, op)(batch)
            assert len(store) == len(oracle)
            assert list(store) == sorted(oracle)
            assert {type(h) for h in store} <= {int}
            for h in [*batch, *probes]:
                assert (h in store) == (h in oracle)

    @given(base=st.integers(0, 400), rounds=st.lists(st.tuples(
        st.lists(_NEAR, max_size=12), st.lists(st.booleans(), max_size=12),
        st.lists(_NEAR, max_size=4), _NEAR, st.integers(30, 150),
        st.sampled_from(["len", "array", "iter", "bulk", "clear"])), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_reads_between_writes_match_a_python_set(self, base, rounds):
        """Over a store of up to 400 handles, each round writes a small
        batch (its new handles wait in the delta, up to a sixteenth of
        the store), removes a drawn part of it plus a few others, then
        reads or writes once more: ``len`` and ``in`` only, a merging
        ``.array`` or iteration, a batch big enough to cross the merge
        rule, or ``clear``. After every step the store reads as the set."""
        store, oracle = HandleStore(), set(range(0, 4 * base, 4))
        store.update(list(oracle))

        def same(*probes):
            assert len(store) == len(oracle)
            for h in probes:
                assert (h in store) == (h in oracle)

        for added, again, others, start, count, then in rounds:
            bulk = list(range(start, start + 3 * count, 3)) if then == "bulk" else []
            store.update(added)
            oracle.update(added)
            same(*added)
            removed = [h for h, yes in zip(added, again) if yes] + others
            store.difference_update(removed)
            oracle.difference_update(removed)
            same(*added, *others)
            if then == "array":
                assert store.array.dtype == np.int64
                assert store.array.tolist() == sorted(oracle)
            elif then == "iter":
                assert list(store) == sorted(oracle)
            elif then == "bulk":
                store.update(bulk)
                oracle.update(bulk)
            elif then == "clear":
                store.clear()
                oracle.clear()
            same(*bulk)
        assert list(store) == sorted(oracle)

    @given(batches=st.lists(st.lists(_HANDLE, max_size=40), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_small_batches_equal_one_batch(self, batches):
        """A store built one batch at a time equals one built from their
        concatenation in a single batch, in length before any merging
        read and in its array after."""
        small, whole = HandleStore(), HandleStore()
        for batch in batches:
            small.update(batch)
        whole.update([h for batch in batches for h in batch])
        assert len(small) == len(whole)
        assert small.array.tolist() == whole.array.tolist()

    def test_has_no_size_for_route_op_to_read(self):
        store = HandleStore()
        store.update((2**40, 3))
        assert not hasattr(store, "size")
        assert RouteOp((0.5, 0.5), "put_ids", tuple(store)).size == 24 + 16 + 16


def test_quick_registration_storm_trajectory_is_pinned():
    """The perf benchmark's ``--quick`` storm, pinned exactly. Hot-zone
    shedding is chaotic — one routing decision, one sub-batch sent in
    another order or one frame of another size moves every number here —
    so this is the first test to fail when an edit that should be
    behaviour-neutral is not. Re-pin only for a change that means to
    alter the directory protocol."""
    n = 12_500
    sim, payload = registration_storm(
        seed=7, n_endpoints=n, n_rendezvous=4, n_regions=8, batch=512,
        admission_rate=n / 4, admission_burst=n / 8, hot_zone_limit=n // 32)
    assert payload["filled"] == n
    assert payload["can_splits"] == 67
    assert payload["can_merges"] == 34
    assert payload["handles_stored"] == 13109
    assert payload["fill_elapsed_s"] == 2.463857757393045
    # n endpoints + the four punch-probe hosts, before and after the outage.
    assert sum(payload["fleet_load_filled"].values()) == 12504
    assert sum(payload["fleet_load_final"].values()) == 12504
    # Stores that reached no owner are counted, and with the stored ones
    # account for every handle published (no forward timed out here).
    assert payload["handles_dropped"] == 958
    assert payload["handles_stored"] + payload["handles_dropped"] == \
        payload["admission_accepted"] == 14067
    # Ownership: primaries are disjoint, each inside its owner's zones.
    cans = list(sim.components.find("can").values())
    assert len(cans) == 4
    primaries = [set(can.handles) for can in cans]
    assert sum(map(len, primaries)) == len(set().union(*primaries))
    for can in cans:
        ids = can.table.handle_ids(can.handles.array)
        assert can.table.in_zones(can.zones, ids).any(axis=0).all()


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

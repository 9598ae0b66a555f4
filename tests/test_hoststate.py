"""The million-endpoint control plane: HostTable, fleet, admission,
the one (batched) registration path and table-resident fault verbs."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hoststate import FLAG_REGISTERED, HostTable, Registration
from repro.faults import FaultInjector
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.rendezvous import _TokenBucket
from repro.overlay.resources import ConnectionInfo
from repro.overlay.space import Zone
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator
from tests.hoststate_oracle import ScalarHostTable


def _conn(public_port=31000):
    return ConnectionInfo(
        rendezvous_ip=IPv4Address("9.1.0.1"), rendezvous_port=4001,
        public_ip=IPv4Address("8.8.4.4"), public_port=public_port,
        private_ip=IPv4Address("192.168.1.2"), private_port=4242,
        nat_type=NatType.PORT_RESTRICTED)


def _reach():
    return (IPv4Address("7.0.0.1"), 4700)


def _register(table, name, conn, attrs, reach, now, owner=-1, region=-1) -> int:
    """One host's registration, as a rendezvous server writes it."""
    reg = replace(Registration.of(name, conn, attrs), region=region)
    (host_id,) = table.register(reg, (conn.rendezvous_ip, conn.rendezvous_port),
                                reach, now, owner)
    return int(host_id)


# -- table basics ------------------------------------------------------

def test_register_row_roundtrip():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    attrs = {"cpu_ghz": 3, "mem_mb": 2048.5}
    host_id = _register(table, "h0", _conn(), attrs, _reach(), now=1.5, owner=2)
    assert table.name_of(host_id) == "h0"
    assert int(table.flags[host_id]) == FLAG_REGISTERED
    assert float(table.last_seen[host_id]) == 1.5
    # The table stamps the freshest observed mapping (the reach port)
    # into rebuilt ConnectionInfos for predicted-port punching.
    assert table.connection_info(host_id) == replace(
        _conn(), observed_port=_reach()[1])
    # Attrs read back from the float32 column (these are exact in it).
    assert table.attrs_of(host_id) == attrs
    assert table.lookup("h0") == host_id
    assert table.lookup("nope") == -1
    assert int(table.owner[host_id]) == 2


def test_handles_go_stale_on_reregistration():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    i = _register(table, "h0", _conn(), {}, _reach(), now=0.0)
    handle = table.handle(i)
    assert table.valid_mask(np.array([handle])).all()
    _register(table, "h0", _conn(public_port=32000), {}, _reach(), now=1.0)
    assert not table.valid_mask(np.array([handle])).any()  # generation bump
    fresh = table.handle(i)
    assert table.valid_mask(np.array([fresh])).all()
    assert table.mark_down(["h0"]) == 1
    assert not table.valid_mask(np.array([fresh])).any()


def test_handles_of_an_id_array_match_handle_per_row():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    for k in range(6):
        _register(table, f"h{k}", _conn(), {}, _reach(), now=0.0)
    for k, times in [(1, 1), (4, 3)]:  # re-registrations bump generations
        for _ in range(times):
            _register(table, f"h{k}", _conn(public_port=32000), {}, _reach(), now=1.0)
    picked = np.array([4, 0, 1, 1, 5], dtype=np.int64)
    handles = table.handles(picked)
    assert handles.dtype == np.int64
    assert handles.tolist() == [table.handle(int(i)) for i in picked]
    assert len({h >> 32 for h in handles.tolist()}) == 3  # generations differ
    assert table.handle_ids(handles).tolist() == picked.tolist()
    assert table.valid_mask(handles).all()
    assert table.handles(np.zeros(0, dtype=np.int64)).tolist() == []


def _batch(names, region=-1, port=20000, attrs=(4.0, 1024.0)):
    n = len(names)
    return Registration(
        names=tuple(names),
        public_ip=np.arange(n, dtype=np.uint32) + 0x0B000000,
        public_port=np.full(n, port, dtype=np.uint16),
        private_ip=np.full(n, 0xC0A80002, dtype=np.uint32),
        private_port=np.full(n, 4242, dtype=np.uint16),
        nat_code=np.full(n, 3, dtype=np.uint8),
        alloc_stride=np.zeros(n, dtype=np.uint16),
        attr_values=np.tile(np.array(attrs, dtype=np.float32), (n, 1)),
        region=region)


_RVZ = (IPv4Address("9.1.0.1"), 4001)


def test_register_batch_vectorized():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    n = 300  # crosses the default-capacity growth boundary
    names = tuple(f"e{i}" for i in range(n))
    ids = table.register(_batch(names, region=7), _RVZ, _reach(), now=2.0,
                         owner=1)
    assert len(ids) == n and table.registered_count == n
    assert table.names_in_region(7) == list(names)
    handles = np.array([table.handle(int(i)) for i in ids])
    assert table.valid_mask(handles).all()
    # Coordinates normalized into [0, 1): cpu 4/16, mem 1024/32768.
    assert np.allclose(table.coords[ids][:, 0], 0.25)
    rec = table.record(int(ids[0]))
    assert rec.host_name == "e0"
    assert rec.conn.nat_type is NatType.PORT_RESTRICTED


def test_register_batch_without_region_keeps_recorded_region():
    table = HostTable(Simulator(seed=1))
    names = ("e0", "e1", "e2")
    table.register(_batch(names, region=7), _RVZ, _reach(), now=1.0)
    table.register(_batch(names), _RVZ, _reach(), now=2.0)
    assert table.names_in_region(7) == list(names)


def test_expiry_and_release_owner():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    _register(table, "a", _conn(), {}, _reach(), now=20.0, owner=0)
    b = _register(table, "b", _conn(), {}, _reach(), now=0.0, owner=0)
    _register(table, "c", _conn(), {}, _reach(), now=50.0, owner=1)
    assert table.expire(horizon=10.0) == ["b"]  # a and c are fresh
    assert not (table.flags[b] & FLAG_REGISTERED)
    released = table.release_owner(1)
    assert released == ["c"]
    assert table.registered_count == 1  # only "a"


def test_touch_bumps_only_rows_the_owner_holds_live():
    """A keepalive refreshes liveness and reach for the names its server
    holds; a row another server owns, an unregistered row and an
    unknown name are left alone and not counted."""
    table = HostTable(Simulator(seed=1))
    for name, owner in [("a", 0), ("b", 1), ("c", 0)]:
        _register(table, name, _conn(), {}, _reach(), now=0.0, owner=owner)
    table.mark_down(["c"])
    moved = (IPv4Address("7.0.0.9"), 4999)
    assert table.touch(("a", "b", "c", "nobody"), 5.0, moved, 0) == 1
    a, b, c = (table.lookup(n) for n in "abc")
    assert float(table.last_seen[a]) == 5.0
    assert (int(table.reach_ip[a]), int(table.reach_port[a])) == (moved[0].value, 4999)
    for i in (b, c):
        assert float(table.last_seen[i]) == 0.0
        assert int(table.reach_port[i]) == _reach()[1]


@given(batches=st.lists(st.lists(st.sampled_from([f"h{i}" for i in range(300)]),
                                 max_size=60), max_size=12))
@settings(max_examples=100, deadline=None)
def test_ensure_rows_matches_row_by_row(batches):
    """Bulk admission, duplicates inside a batch and names seen before
    included, leaves the table as admitting one name at a time does
    — down to the containers' allocated sizes, which
    ``steady_state_bytes`` counts — and crosses a column doubling."""
    sim_bulk, sim_single = Simulator(seed=1), Simulator(seed=1)
    bulk, single = HostTable(sim_bulk), ScalarHostTable(sim_single)
    for names in batches:
        ids = bulk.ensure_rows(tuple(names))
        assert ids.dtype == np.int64
        assert ids.tolist() == [single.ensure_row(n) for n in names]
        assert bulk._names == single._names
        assert list(bulk._ids.items()) == list(single._ids.items())
        assert sys.getsizeof(bulk._names) == sys.getsizeof(single._names)
        assert sys.getsizeof(bulk._ids) == sys.getsizeof(single._ids)
        assert bulk.nbytes == single.nbytes
        assert (sim_bulk.metrics.value("hosttable.rows")
                == sim_single.metrics.value("hosttable.rows"))


def test_in_zones_matches_per_zone_tests_on_the_bounds():
    """The stacked containment test equals one test per zone against the
    zone's Python-float bounds, for float32 points on each bound and one
    float32 step either side — including bounds float32 cannot hold
    (0.7 rounds down to a float32 below it, 0.3 up to one above it)."""
    sim = Simulator(seed=1)
    table = HostTable(sim)
    left, right = Zone.whole(2).split()
    zones = [*left.split(), right, Zone((0.3, 0.1), (0.7, 0.9)),
             Zone((0.7, 0.0), (1.0, 0.3))]
    bounds = {b for z in zones for b in (*z.lows, *z.highs)}
    axis = sorted({float(x) for b in bounds for x in (
        np.float32(b), *np.nextafter(np.float32(b), np.float32([0.0, 1.0])))
        if x < 1.0})
    grid = np.array([(x, y) for x in axis for y in axis], dtype=np.float32)
    ids = table.ensure_rows(tuple(f"p{i}" for i in range(len(grid))))
    table.coords[ids] = grid
    inside = table.in_zones(zones, ids)
    assert inside.shape == (len(zones), len(ids))
    for zone, row in zip(zones, inside):
        per_zone = np.ones(len(ids), dtype=bool)
        for d in range(2):
            per_zone &= ((table.coords[ids, d] >= zone.lows[d])
                         & (table.coords[ids, d] < zone.highs[d]))
        assert (row == per_zone).all()
    # float32(0.7) is below 0.7: a float64 comparison would leave it out.
    on_bound = (grid[:, 0] == np.float32(0.7)) & (grid[:, 1] == 0.0)
    assert inside[4, on_bound].all() and float(np.float32(0.7)) < 0.7


def test_zone_selection_vectorized():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    lo = _register(table, "lo", _conn(), {"cpu_ghz": 2.0, "mem_mb": 1000.0},
                   _reach(), now=0.0)
    hi = _register(table, "hi", _conn(), {"cpu_ghz": 14.0, "mem_mb": 30000.0},
                   _reach(), now=0.0)
    lower, upper = Zone.whole(2).split()
    ids = np.array([lo, hi])
    inside = table.in_zones([lower, upper], ids)
    assert list(ids[inside[0]]) == [lo]
    assert list(ids[inside[1]]) == [hi]


@pytest.mark.parametrize("top", [{"cpu_ghz": 16.0, "mem_mb": 4096.0},
                                 {"cpu_ghz": 4.0, "mem_mb": 65536.0}])
def test_host_at_the_top_of_an_attribute_range_registers(top):
    """An attribute at or above its range's top maps just below 1.0 in
    CAN space: a point at 1.0 lies in no zone [lo, hi), not even the
    whole space, so the host could not register and no query found it."""
    sim = Simulator(seed=1)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    a = env.add_host("a", attrs={"cpu_ghz": 4.0, "mem_mb": 4096.0})
    env.add_host("b", attrs=top)
    env.up()
    assert (env.table.coords[env.table.lookup("b")] < 1.0).all()
    found = sim.run_coro(a.driver.query_resources(limit=8))
    assert [r.host_name for r in found] == ["b"]


# -- admission ---------------------------------------------------------

def test_token_bucket_deterministic_refill():
    bucket = _TokenBucket(rate=10.0, burst=5.0)
    assert bucket.admit(0.0, 5)
    assert not bucket.admit(0.0, 1)
    assert bucket.retry_after(1) == pytest.approx(0.1)
    assert bucket.admit(0.5, 5)  # refilled 10/s * 0.5s
    assert not bucket.admit(0.5, 1)


def test_rendezvous_batch_registration_and_query():
    sim = Simulator(seed=3)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    server = env.rendezvous[0]
    n = 40
    batch = _batch([f"b{i}" for i in range(n)], region=2, port=21000,
                   attrs=(8.0, 16384.0))
    result = server._on_register(batch, *_reach())
    assert sim.run_coro(result) == ("registered", n)  # n handles stored
    assert sim.metrics.value(f"{server.host.name}.rvz.hosts.registered") == n
    assert len(server.host_names()) == n
    assert server.registered("b7") == env.table.lookup("b7") >= 0
    assert server.registered("nobody") == -1
    # Handle-backed directory answers queries without full records.
    records = sim.run_coro(
        server.can.route("get", (0.5, 0.5), 5))
    assert 0 < len(records) <= 5
    assert all(r.host_name.startswith("b") for r in records)


# -- fleet -------------------------------------------------------------

def test_fleet_consistent_assignment_and_failover():
    sim = Simulator(seed=5)
    env = WavnetEnvironment(sim, n_rendezvous=3)
    names = [f"n{i}" for i in range(50)]

    def live(name):
        """Where a driver's failover walk ends: the first RUNNING server
        in ring-successor order."""
        return next(i for i in env.ring.order(name)
                    if env.rendezvous[i].running)

    before = {name: live(name) for name in names}
    assert before == {name: env.ring.index(name) for name in names}
    assert len(set(before.values())) == 3  # all servers get endpoints
    victim = env.rendezvous[0]
    victim.crash()
    after = {name: live(name) for name in names}
    moved = {n for n in before if before[n] != after[n]}
    assert moved == {n for n, idx in before.items() if idx == 0}
    assert all(after[n] != 0 for n in moved)
    victim.restore()
    assert before == {name: live(name) for name in names}
    loads = env.fleet_load()
    assert set(loads) == {s.host.name for s in env.rendezvous}
    assert sim.metrics.value("rvz.fleet.servers_up") == 3


# -- table-resident fault verbs ---------------------------------------

def test_endpoint_fault_verbs_without_materialization():
    sim = Simulator(seed=2)
    table = HostTable(sim)
    for i, region in enumerate([0, 0, 1]):
        _register(table, f"f{i}", _conn(), {}, _reach(), now=0.0, owner=0,
                  region=region)
    injector = FaultInjector(sim)
    assert injector.endpoint_down(table, "f2") == 1
    f2 = table.lookup("f2")
    assert not table.flags[f2] & FLAG_REGISTERED
    assert injector.endpoint_reconnect(table, "f2", owner=1) == 1
    assert table.flags[f2] & FLAG_REGISTERED and int(table.owner[f2]) == 1
    downed = injector.regional_outage(table, 0)
    assert sorted(downed) == ["f0", "f1"]
    assert table.registered_count == 1
    assert sim.metrics.value("faults.injected.regional_outage") == 1


# -- the storm scenario -------------------------------------------------

def test_registration_storm_scenario_smoke():
    from repro.scenarios.storm import registration_storm
    sim, payload = registration_storm(
        seed=11, n_endpoints=400, n_rendezvous=2, n_regions=2, batch=64,
        admission_rate=400.0, admission_burst=120.0, hot_zone_limit=60,
        punch_pairs=1)
    assert payload["filled"] == 400
    assert payload["registered"] == 402  # + 2 punch hosts
    assert payload["reconnected"] == payload["outage_endpoints"] == 200
    assert payload["admission_rejected"] > 0
    assert payload["can_splits"] > 0
    assert payload["handles_stored"] >= 400
    assert payload["bytes_per_endpoint"] < 2048
    assert len(payload["punch_latency_s"]) == 1
    assert sum(payload["fleet_load_final"].values()) == 402

"""Tests for the rendezvous fleet: the consistent-hash ring and how
``WavnetEnvironment.add_host`` assigns hosts to servers."""

from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.fleet import HashRing
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator


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

    @given(names=st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                  max_size=12), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_batched_assignment_matches_index(self, names):
        """``indices`` is ``index`` per name: on random names, on names
        whose hash equals a vnode key (``bisect_right`` puts them on the
        next vnode) and on one hashing past the last key (wraps)."""
        ring = HashRing([f"rvz{i}" for i in range(4)])
        ties = ["rvz1#5", "rvz3#63"]
        assert all(crc32(n.encode()) in ring._keys for n in ties)
        past = next(f"w{j}" for j in range(100_000)
                    if crc32(f"w{j}".encode()) > ring._keys[-1])
        names = [*names, *ties, past]
        assert ring.indices(names).tolist() == [ring.index(n) for n in names]

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
        driver = env.add_host("endpoint-a").driver
        assert driver.rendezvous_candidates == [
            env.rendezvous_addr(j) for j in env.ring.order("endpoint-a")]
        assert env.assign_rendezvous("endpoint-a") == env.ring.index("endpoint-a")

    def test_explicit_index_overrides_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        driver = env.add_host("endpoint-b", rendezvous_index=1).driver
        assert driver.rendezvous_candidates == [
            env.rendezvous_addr(j) for j in (1, 0, 2)]

    def test_static_ring_agrees_with_live_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        live = HashRing([s.host.name for s in env.rendezvous])
        for endpoint in ("a", "b", "c", "host-17", "s2h9"):
            assert env.ring.index(endpoint) == live.index(endpoint)

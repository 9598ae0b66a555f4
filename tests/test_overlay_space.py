"""Tests + property tests for CAN zone geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.space import Zone, torus_distance, zone_distances


class TestZoneBasics:
    def test_whole_space_contains_everything(self):
        z = Zone.whole(2)
        assert z.contains((0.0, 0.0))
        assert z.contains((0.999, 0.5))
        assert z.volume() == 1.0

    def test_contains_is_half_open(self):
        z = Zone((0.0, 0.0), (0.5, 0.5))
        assert z.contains((0.0, 0.0))
        assert not z.contains((0.5, 0.25))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            Zone.whole(2).contains((0.5,))

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Zone((0.5,), (0.5,))
        with pytest.raises(ValueError):
            Zone((0.2, 0.0), (1.2, 1.0))

    def test_distance_dim_mismatch_raises(self):
        """A point of the wrong dimension is refused, as by ``contains``
        (the zip in ``distance_to_point`` used to truncate it silently)."""
        zone = Zone.whole(2)
        for point in [(0.5,), (0.5, 0.5, 0.5)]:
            with pytest.raises(ValueError):
                zone.distance_to_point(point)
            with pytest.raises(ValueError):
                zone_distances([zone.lows], [zone.highs], [point])
        with pytest.raises(ValueError):
            zone_distances([zone.lows], [zone.highs], (0.5, 0.5))  # not (m, d)

    def test_split_halves_longest_dim(self):
        z = Zone((0.0, 0.0), (1.0, 0.5))
        lower, upper = z.split()
        assert lower == Zone((0.0, 0.0), (0.5, 0.5))
        assert upper == Zone((0.5, 0.0), (1.0, 0.5))

    def test_split_preserves_volume(self):
        z = Zone((0.25, 0.5), (0.5, 1.0))
        lower, upper = z.split()
        assert lower.volume() + upper.volume() == pytest.approx(z.volume())

    def test_merge_roundtrip(self):
        z = Zone((0.0, 0.0), (0.5, 1.0))
        lower, upper = z.split()
        assert lower.can_merge(upper)
        assert lower.merge(upper) == z

    def test_cannot_merge_disjoint(self):
        a = Zone((0.0, 0.0), (0.25, 1.0))
        b = Zone((0.5, 0.0), (0.75, 1.0))
        assert not a.can_merge(b)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_neighbors_share_face(self):
        a = Zone((0.0, 0.0), (0.5, 1.0))
        b = Zone((0.5, 0.0), (1.0, 1.0))
        assert a.is_neighbor(b)
        assert b.is_neighbor(a)

    def test_corner_touch_is_not_neighbor(self):
        a = Zone((0.0, 0.0), (0.5, 0.5))
        b = Zone((0.5, 0.5), (1.0, 1.0))
        assert not a.is_neighbor(b)

    def test_wraparound_neighbors(self):
        a = Zone((0.0, 0.0), (0.25, 1.0))
        b = Zone((0.75, 0.0), (1.0, 1.0))
        assert a.is_neighbor(b)

    def test_distance_to_contained_point_is_zero(self):
        z = Zone((0.25, 0.25), (0.5, 0.5))
        assert z.distance_to_point((0.3, 0.4)) == 0.0

    def test_distance_wraps_around(self):
        z = Zone((0.0, 0.0), (0.1, 1.0))
        assert z.distance_to_point((0.95, 0.5)) == pytest.approx(0.05)

    def test_torus_distance(self):
        assert torus_distance((0.1, 0.5), (0.9, 0.5)) == pytest.approx(0.2)
        assert torus_distance((0.2, 0.2), (0.2, 0.2)) == 0.0


points = st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999))


class TestZoneProperties:
    @given(points)
    @settings(max_examples=100)
    def test_split_partitions_whole_space(self, p):
        """After any sequence of splits, every point has exactly one owner."""
        zones = [Zone.whole(2)]
        for _ in range(6):
            z = max(zones, key=lambda z: z.volume())
            zones.remove(z)
            zones.extend(z.split())
        owners = [z for z in zones if z.contains(p)]
        assert len(owners) == 1

    @given(points)
    @settings(max_examples=100)
    def test_distance_zero_iff_contains(self, p):
        z = Zone((0.25, 0.125), (0.75, 0.625))
        if z.contains(p):
            assert z.distance_to_point(p) == pytest.approx(0.0, abs=1e-9)
        elif z.distance_to_point(p) < 1e-12:
            # Boundary: hi edge is excluded from contains but at distance 0.
            on_edge = any(abs(p[i] - z.highs[i]) < 1e-9 or abs(p[i] - z.lows[i]) < 1e-9
                          for i in range(2))
            assert on_edge

    @given(points, points)
    @settings(max_examples=100)
    def test_torus_distance_symmetric(self, a, b):
        assert torus_distance(a, b) == pytest.approx(torus_distance(b, a))

    @given(points, points, points)
    @settings(max_examples=100)
    def test_torus_triangle_inequality(self, a, b, c):
        assert torus_distance(a, c) <= torus_distance(a, b) + torus_distance(b, c) + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_repeated_split_merge_identity(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        zones = [Zone.whole(2)]
        for _ in range(8):
            z = zones.pop(int(rng.integers(len(zones))))
            zones.extend(z.split())
        total = sum(z.volume() for z in zones)
        assert total == pytest.approx(1.0)


@st.composite
def zones_and_points(draw):
    """Zones of one dimension — free boxes, boxes on the wrap-around faces
    at 0 and 1, full-width axes, and the leaves of repeated ``split()`` —
    with points drawn at random, on zone faces, and at float32 precision
    (what the host table's coords column holds)."""
    dims = draw(st.integers(1, 4))
    edge = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)

    def box():
        bounds = []
        for _ in range(dims):
            lo, hi = sorted((draw(edge), draw(edge)))
            bounds.append((lo, hi) if lo < hi else (0.0, 1.0))
        return Zone(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))

    zones = [box() for _ in range(draw(st.integers(0, 4)))]
    leaves = [Zone.whole(dims)]
    for _ in range(draw(st.integers(0, 8))):
        leaf = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        leaves.extend(leaf.split())
    zones.extend(leaves)
    faces = sorted({x for z in zones for x in z.lows + z.highs if x < 1.0})
    coord = (st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(faces)
             | st.floats(0.0, 1.0, exclude_max=True, width=32))
    pts = draw(st.lists(st.tuples(*[coord] * dims), min_size=1, max_size=6))
    return zones, pts


class TestZoneDistances:
    @given(zones_and_points())
    @settings(max_examples=300, deadline=None)
    def test_kernel_is_bitwise_the_scalar_distance(self, case):
        """``==``, not ``approx``: greedy routing compares these numbers,
        and the batch kernel must take every decision the scalar takes."""
        zones, pts = case
        dist = zone_distances([z.lows for z in zones], [z.highs for z in zones], pts)
        assert dist.shape == (len(pts), len(zones))
        for i, point in enumerate(pts):
            for j, zone in enumerate(zones):
                assert dist[i, j] == zone.distance_to_point(point)

    def test_no_zones_gives_an_empty_column_set(self):
        assert zone_distances([], [], np.zeros((3, 2))).shape == (3, 0)

"""CAN coordinate-space geometry: points and zones on the d-torus.

The CAN key space is the unit d-torus [0,1)^d. Zones are axis-aligned
boxes; joins split a zone in half along its longest dimension (round-
robin tie-break on dimension index, as in the CAN paper); neighbors are
zones sharing a (d-1)-dimensional face, with wraparound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Point", "Zone", "torus_distance", "zone_distances"]

Point = tuple  # tuple[float, ...] in [0,1)^d


def _wrap_gap(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
    """Do intervals [a_lo,a_hi) and [b_lo,b_hi) abut on the unit circle?"""
    if abs(a_hi - b_lo) < 1e-12 or abs(b_hi - a_lo) < 1e-12:
        return True
    # Wraparound faces at 0/1.
    if abs(a_hi - 1.0) < 1e-12 and abs(b_lo) < 1e-12:
        return True
    if abs(b_hi - 1.0) < 1e-12 and abs(a_lo) < 1e-12:
        return True
    return False


def _overlap(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
    """Do the intervals overlap in more than a point?"""
    return min(a_hi, b_hi) - max(a_lo, b_lo) > 1e-12


def _axis_distance(x: float, lo: float, hi: float) -> float:
    """Torus distance from coordinate x to interval [lo, hi)."""
    if lo - 1e-12 <= x < hi + 1e-12:
        return 0.0
    d1 = min(abs(x - lo), abs(x - hi))
    d2 = min(abs(x - lo + 1.0), abs(x - hi - 1.0), abs(x - lo - 1.0), abs(x - hi + 1.0))
    return min(d1, d2)


def torus_distance(a: Point, b: Point) -> float:
    """Euclidean distance on the unit torus."""
    total = 0.0
    for x, y in zip(a, b):
        d = abs(x - y)
        d = min(d, 1.0 - d)
        total += d * d
    return total ** 0.5


def zone_distances(lows, highs, pts) -> np.ndarray:
    """:meth:`Zone.distance_to_point` for ``m`` points against ``Z`` zones
    at once: ``lows`` / ``highs`` are the zones' bounds stacked ``(Z, d)``,
    ``pts`` is ``(m, d)``, the result ``(m, Z)``.

    Bit-identical to the scalar method, not merely close: greedy routing
    compares these distances, and one flipped comparison reroutes a
    registration storm. So every axis does the scalar's operations in the
    scalar's order, squares accumulate from ``0.0`` in axis order, and the
    root is the correctly rounded one on both sides (``np.sqrt`` here,
    ``math.sqrt`` there — C ``pow(x, 0.5)`` is 1 ulp off on ~0.1 % of
    inputs).
    """
    pts = np.asarray(pts, dtype=np.float64)
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (m, d), got shape {pts.shape}")
    if len(lows) == 0:
        return np.empty((len(pts), 0))
    if pts.shape[1] != lows.shape[1]:
        raise ValueError(f"point dim {pts.shape[1]} != zone dim {lows.shape[1]}")
    total = np.zeros((len(pts), len(lows)))
    for axis in range(pts.shape[1]):
        x = pts[:, axis, None]
        lo, hi = lows[:, axis], highs[:, axis]
        from_lo, from_hi = x - lo, x - hi
        d = np.minimum(np.abs(from_lo), np.abs(from_hi))
        for wrapped in (from_lo + 1.0, from_hi - 1.0, from_lo - 1.0, from_hi + 1.0):
            np.minimum(d, np.abs(wrapped), out=d)
        d[(lo - 1e-12 <= x) & (x < hi + 1e-12)] = 0.0
        total += d * d
    return np.sqrt(total)


@dataclass(frozen=True)
class Zone:
    """Axis-aligned box: per-dimension [lo, hi) intervals."""

    lows: tuple
    highs: tuple

    @classmethod
    def whole(cls, dims: int) -> "Zone":
        return cls(tuple(0.0 for _ in range(dims)), tuple(1.0 for _ in range(dims)))

    @property
    def dims(self) -> int:
        return len(self.lows)

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError("dimension mismatch")
        for lo, hi in zip(self.lows, self.highs):
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"bad interval [{lo}, {hi})")

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != self.dims:
            raise ValueError(f"point dim {len(point)} != zone dim {self.dims}")
        return all(lo <= x < hi for x, lo, hi in zip(point, self.lows, self.highs))

    def volume(self) -> float:
        v = 1.0
        for lo, hi in zip(self.lows, self.highs):
            v *= hi - lo
        return v

    def center(self) -> Point:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    def longest_dim(self) -> int:
        """Index of the widest dimension (first wins on ties — the CAN
        ordered-splitting convention)."""
        widths = [hi - lo for lo, hi in zip(self.lows, self.highs)]
        return widths.index(max(widths))

    def split(self) -> "tuple[Zone, Zone]":
        """Halve along the longest dimension; returns (lower, upper)."""
        d = self.longest_dim()
        mid = (self.lows[d] + self.highs[d]) / 2.0
        lower = Zone(self.lows, tuple(mid if i == d else h for i, h in enumerate(self.highs)))
        upper = Zone(tuple(mid if i == d else l for i, l in enumerate(self.lows)), self.highs)
        return lower, upper

    def is_neighbor(self, other: "Zone") -> bool:
        """True if the zones share a (d-1)-dimensional face (torus-aware)."""
        if other.dims != self.dims:
            return False
        abut_dims = 0
        for i in range(self.dims):
            a_lo, a_hi = self.lows[i], self.highs[i]
            b_lo, b_hi = other.lows[i], other.highs[i]
            full_a = a_hi - a_lo >= 1.0 - 1e-12
            full_b = b_hi - b_lo >= 1.0 - 1e-12
            if _overlap(a_lo, a_hi, b_lo, b_hi) or full_a or full_b:
                continue
            if _wrap_gap(a_lo, a_hi, b_lo, b_hi):
                abut_dims += 1
            else:
                return False
        return abut_dims == 1

    def distance_to_point(self, point: Sequence[float]) -> float:
        """Torus distance from the zone (as a set) to a point
        (:func:`zone_distances` is the same arithmetic over arrays)."""
        if len(point) != self.dims:
            raise ValueError(f"point dim {len(point)} != zone dim {self.dims}")
        total = 0.0
        for x, lo, hi in zip(point, self.lows, self.highs):
            d = _axis_distance(x, lo, hi)
            total += d * d
        return math.sqrt(total)

    def can_merge(self, other: "Zone") -> bool:
        """True if the union of the two zones is itself a box."""
        same = [i for i in range(self.dims)
                if abs(self.lows[i] - other.lows[i]) < 1e-12
                and abs(self.highs[i] - other.highs[i]) < 1e-12]
        if len(same) != self.dims - 1:
            return False
        (d,) = [i for i in range(self.dims) if i not in same]
        return (abs(self.highs[d] - other.lows[d]) < 1e-12
                or abs(other.highs[d] - self.lows[d]) < 1e-12)

    def merge(self, other: "Zone") -> "Zone":
        if not self.can_merge(other):
            raise ValueError(f"cannot merge {self} with {other}")
        lows = tuple(min(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(max(a, b) for a, b in zip(self.highs, other.highs))
        return Zone(lows, highs)

    def __str__(self) -> str:
        parts = ", ".join(f"[{lo:.3f},{hi:.3f})" for lo, hi in zip(self.lows, self.highs))
        return f"Zone({parts})"

"""The fluid plane's capacity graph and its max-min waterfill, as arrays.

:class:`FluidLink` and :class:`FluidPath` are the graph (re-exported by
:mod:`repro.net.fluid`); a :class:`PathTable` holds the registered paths
as flat arrays. A solve hands :func:`waterfill` the live flows' caps and
the (flow, link) pairs their paths cross
(:meth:`PathTable.incidence`); progressive filling raises every unfrozen flow's
goodput together, and a flow freezes at its cap or when a link it
crosses saturates. Per-pair consumption factors (header overhead, CPU
seconds per bit) make it weighted max-min in goodput space.
:func:`by_instant` and :func:`first_occurrences` are the grouping the
completion cohorts need.

Exactness: every float is produced by the same IEEE operations, in the
same order, as the per-flow loop these passes replaced. A link's
unfrozen weight is a *sequential* sum in flow order — ``np.bincount``
over flow-major pairs adds its weights one at a time in input order,
where ``np.sum``/``np.add.reduce`` sum pairwise and would move the last
bit (and with it a rate, an ETA and the simulated clock). Minima and the
per-iteration increments are order-free.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["FluidLink", "FluidPath", "PathTable", "by_instant",
           "first_occurrences", "waterfill"]


class FluidLink:
    """One direction of capacity in the fluid graph.

    ``pipe`` binds the link to a packet-plane ``_Pipe``: capacity,
    admin state and loss are read from the pipe at every solve, and the
    pipe's ``bytes_sent`` counter feeds the hybrid utilization
    subtraction, measured from the instant the link was bound. Unbound
    links (``pipe=None``) carry their own fields — used by solver unit
    tests and by non-wire resources (CPU)."""

    __slots__ = ("name", "kind", "capacity_bps", "pipe", "up", "loss",
                 "_pkt_bytes", "_pkt_at", "pkt_util_bps")

    def __init__(self, name: str, capacity_bps: Optional[float] = None,
                 pipe=None, kind: str = "wire") -> None:
        self.name = name
        self.kind = kind
        self.capacity_bps = capacity_bps
        self.pipe = pipe
        self.up = True
        self.loss = 0.0
        self._pkt_bytes = 0 if pipe is None else pipe.bytes_sent
        self._pkt_at = 0.0 if pipe is None else pipe.sim.now
        self.pkt_util_bps = 0.0

    def capacity(self) -> float:
        """Raw capacity in resource units/s (bits/s for wire links)."""
        if self.pipe is not None:
            if not self.pipe.up:
                return 0.0
            bw = self.pipe.bandwidth_bps
            return math.inf if bw is None else float(bw)
        if not self.up:
            return 0.0
        return math.inf if self.capacity_bps is None else float(self.capacity_bps)

    def current_loss(self) -> float:
        return float(self.pipe.loss) if self.pipe is not None else self.loss

    def sample_packet_util(self, now: float, min_window: float = 1e-3) -> None:
        """Refresh the measured packet-path utilization (windowed mean
        over the interval since the previous sample)."""
        if self.pipe is None:
            return
        dt = now - self._pkt_at
        if dt < min_window:
            return
        sent = self.pipe.bytes_sent
        self.pkt_util_bps = (sent - self._pkt_bytes) * 8.0 / dt
        self._pkt_bytes = sent
        self._pkt_at = now

    def available(self, util_floor: float) -> float:
        """Fluid-visible capacity: raw capacity minus measured packet
        utilization, floored at ``util_floor`` of raw capacity so fluid
        flows are never fully starved by packet bursts."""
        cap = self.capacity()
        if cap == 0.0 or not math.isfinite(cap):
            return cap
        return max(cap - self.pkt_util_bps, cap * util_floor)


@dataclass(frozen=True)
class FluidPath:
    """One direction of a route through the fluid capacity graph."""

    links: tuple  # of (FluidLink, factor) pairs
    rtt: float
    mss: int = 1460
    sites: Optional[tuple] = None     # (src_site, dst_site) on `cloud`
    cloud: object = None              # WanCloud carrying `sites`
    conduits: tuple = ()              # WAV tunnel keys gating the path

    def blocked(self, net) -> Optional[str]:
        """Why this path cannot carry traffic right now (None if it can);
        ``net`` is the FluidNetwork holding the conduit states."""
        for link, _factor in self.links:
            if link.capacity() == 0.0:
                return f"link_down:{link.name}"
        if self.cloud is not None and self.sites is not None:
            if self.cloud.partitioned(*self.sites):
                return "partitioned"
        for key in self.conduits:
            if not net.conduit_up(key):
                return f"tunnel_down:{key[0]}-{key[1]}"
        return None

    def loss(self) -> float:
        """Combined i.i.d. frame loss probability along the path."""
        keep = 1.0
        for link, _factor in self.links:
            keep *= 1.0 - link.current_loss()
        return 1.0 - keep


class PathTable:
    """Registered paths, their links as flat runs of (link index, factor)
    pairs, and the graph links they use: the waterfill's input form."""

    def __init__(self) -> None:
        self.paths: list[FluidPath] = []
        self.links: list[FluidLink] = []
        self._path_ix: dict[int, int] = {}
        self._link_ix: dict[int, int] = {}
        self._off = array("q")
        self._len = array("q")
        self._link = array("q")
        self._factor = array("d")

    def index(self, path: FluidPath) -> int:
        """``path``'s index, registering it (and its links) on first use."""
        pi = self._path_ix.get(id(path))
        if pi is None:
            pi = self._path_ix[id(path)] = len(self.paths)
            self.paths.append(path)
            self._off.append(len(self._link))
            self._len.append(len(path.links))
            for link, factor in path.links:
                li = self._link_ix.get(id(link))
                if li is None:
                    li = self._link_ix[id(link)] = len(self.links)
                    self.links.append(link)
                self._link.append(li)
                self._factor.append(factor)
        return pi

    def incidence(self, paths: np.ndarray) -> tuple:
        """Flow-major (flow, link) pairs of flows riding ``paths`` (one
        path index per flow): ``(pair_flow, pair_link, pair_factor,
        used)``, links renumbered onto ``used``, the link indices in play."""
        q = np.int64
        counts = np.frombuffer(self._len, q)[paths]
        ends = np.cumsum(counts)
        pairs = (np.arange(int(ends[-1]) if len(ends) else 0)
                 + np.repeat(np.frombuffer(self._off, q)[paths] - (ends - counts), counts))
        used, pair_link = np.unique(np.frombuffer(self._link, q)[pairs],
                                    return_inverse=True)
        return (np.repeat(np.arange(len(paths)), counts), pair_link,
                np.frombuffer(self._factor)[pairs], used)


def by_instant(whens: np.ndarray) -> list:
    """``(first position, positions)`` per distinct value of ``whens``, in
    order of first appearance, positions in order."""
    _, first, inv = np.unique(whens, return_index=True, return_inverse=True)
    parts = np.split(np.argsort(inv, kind="stable"), np.cumsum(np.bincount(inv))[:-1])
    return [(int(first[k]), parts[k]) for k in np.argsort(first).tolist()]


def first_occurrences(members: np.ndarray) -> np.ndarray:
    """``members`` without repeats, each kept at its first position."""
    uniq, first = np.unique(members, return_index=True)
    return members if len(uniq) == len(members) else members[np.sort(first)]


def waterfill(caps: np.ndarray, pair_flow: np.ndarray, pair_link: np.ndarray,
              pair_factor: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Goodput rate per flow.

    ``caps[i]`` is flow ``i``'s own ceiling; pair ``j`` says flow
    ``pair_flow[j]`` consumes ``pair_factor[j]`` units of link
    ``pair_link[j]`` per goodput bit/s, pairs sorted flow-major (each
    flow's path links in path order); ``avail[k]`` is link ``k``'s
    fluid-visible capacity (``inf`` for an unshaped link)."""
    n = len(caps)
    n_links = len(avail)
    rates = np.zeros(n)
    frozen = np.zeros(n, dtype=bool)
    rem = avail.astype(np.float64, copy=True)
    finite = np.isfinite(avail)
    sat_eps = np.where(finite, np.maximum(1e-6, avail * 1e-9), 0.0)
    # A flow at its cap: rates >= caps - max(1e-6, caps * 1e-12), which an
    # infinite cap (inf - inf) never meets.
    with np.errstate(invalid="ignore"):
        cap_line = caps - np.maximum(1e-6, caps * 1e-12)
    n_unfrozen = n
    guard = 0
    while n_unfrozen > 0:
        guard += 1
        if guard > 2 * (n + n_links) + 4:  # pragma: no cover
            break  # numerical safety; freeze everything as-is
        live = ~frozen[pair_flow]
        weights = np.bincount(pair_link[live], weights=pair_factor[live],
                              minlength=n_links)
        loaded = weights > 0.0
        inc = math.inf
        if loaded.any():
            inc = float((rem[loaded] / weights[loaded]).min())
        unfrozen = ~frozen
        room = float((caps[unfrozen] - rates[unfrozen]).min())
        if room < inc:
            inc = room
        if inc == math.inf:
            break  # no finite constraint (all caps infinite, links unshaped)
        if inc > 0.0:
            rem = rem - inc * weights
            rates[unfrozen] += inc
        # Freeze cap-limited flows, then every flow on a saturated link.
        newly = unfrozen & (rates >= cap_line)
        saturated = rem <= sat_eps
        if saturated.any():
            newly[pair_flow[saturated[pair_link]]] = True
            newly &= unfrozen
        count = int(newly.sum())
        frozen |= newly
        n_unfrozen -= count
        if not count and inc <= 0.0:  # pragma: no cover
            break
    return rates

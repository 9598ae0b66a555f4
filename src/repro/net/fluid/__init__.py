"""Fluid (flow-level) data plane: max-min bandwidth sharing for bulk traffic.

The packet plane simulates every frame of every flow; a 32 MB ttcp run
is ~10^5 calendar events. For the paper's bulk-transfer experiments
(fig06/fig07 ttcp, table4 HTTP, fig08 scale-out) the *steady-state
throughput* is fully determined by bottleneck sharing, so this module
models a bulk transfer as one :class:`FluidFlow` whose rate comes from a
max-min fair-share solver (progressive filling) over the capacity graph.
The simulator then schedules only *rate-change* events: flow arrival,
flow departure, a slow-start ramp step, a capacity/fault change, and one
completion entry per completion *instant* — flows whose ETA (or
last-byte delivery) falls on the same instant share it.

The plane is **hybrid**: the control plane and any flow opened with
``fidelity="packet"`` stay on the packet path. Fluid and packet traffic
coexist on shared links: the fluid-visible capacity of a link is its
configured bandwidth minus the packet path's *measured* utilization
(sampled from ``_Pipe.bytes_sent`` at every re-solve and on a periodic
refresh tick while flows are active).

* :class:`FluidLink` — one direction of capacity, usually bound to a
  packet-plane ``_Pipe`` (reshaping, ``admin_down`` and loss flow
  straight through); unbound links model non-wire resources such as the
  IPOP user-level stack CPU (capacity 1.0 cpu-second/second).
* :class:`FluidPath` — the ordered ``(link, factor)`` list one flow
  direction consumes (``factor``: resource units per goodput bit/s —
  ``wire_bytes_per_mss / mss`` on wires, ``cpu_seconds_per_mss / (mss *
  8)`` on CPU links), the path RTT, the WAN-cloud site pair (partition
  checks) and the WAV tunnel conduits it rides.
* :class:`FluidFlow` — one bulk transfer, capped at ``min(window/RTT,
  cc.rate_cap(loss), ramp)``: the loss response is the congestion-control
  plane's (:mod:`repro.net.cc`; ``cc=None`` is Reno's Mathis curve) and
  the ramp models TCP slow start (initial window at once, then the cap
  doubles each RTT until it clears the window cap), which makes short
  and mid-size transfers agree with the packet plane, not just t→∞.
* :class:`FluidNetwork` — per-simulator registry, flow columns and
  solver. Re-solves are dirty-flagged and batched per timestamp, and a
  solve or a completion cohort is a few array passes over the columns
  (the waterfill itself: :mod:`repro.net.fluid.waterfill`).

Faults: ``link_flap``/``admin_down`` zero the link's capacity,
``loss_burst`` engages the Mathis cap, and WAN partitions stall every
flow whose site pair is cut — all through the watcher hooks the fault
injector drives. Stalled flows hold their delivered bytes and resume
when the path heals; ``stall_timeout`` aborts them instead
(``flow.done`` fails with :class:`FluidAborted`).
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import repeat
from typing import Optional

import numpy as np

from repro.net.cc import INITIAL_CWND_SEGMENTS, cc_class, window_rate_bps
from repro.net.fluid.flow import (_ABORTED, _ACTIVE, _DELIVERED, _DONE, _STALLED,
                                  FluidFlow, _resolved)
from repro.net.fluid.waterfill import (FluidLink, FluidPath, PathTable,
                                      by_instant, first_occurrences, waterfill)
from repro.sim.engine import Simulator

__all__ = ["FluidAborted", "FluidFlow", "FluidLink", "FluidNetwork",
           "FluidPath"]

_EPS = 1e-9
_INF = math.inf
# The share of a link's raw capacity fluid flows keep however busy the
# packet plane measures it (FluidLink.available).
UTIL_FLOOR = 0.01


class FluidAborted(Exception):
    """A fluid flow was aborted (fault, stall timeout, or explicit)."""


class _Cohort:
    """One instant's timer, its flows (column indices in arm order, as
    array chunks), for an ETA cohort how many are still armed and, for a
    delivery cohort, the kernel's last sequence number when it took
    flows."""

    __slots__ = ("timer", "chunks", "armed", "seq")

    def __init__(self, timer) -> None:
        self.timer = timer
        self.chunks: list = []
        self.armed = 0
        self.seq = 0

    def members(self) -> np.ndarray:
        chunks = self.chunks
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class FluidNetwork:
    """Per-simulator fluid plane: capacity graph, routes, flow columns,
    solver. Registers itself as ``sim.fluid`` so apps and the WAVNet
    driver find it without plumbing; nothing runs until a flow opens.
    ``flows`` holds the active and stalled handles in open order. A solve
    or a cohort fire takes numpy views of the flow columns and is a few
    array passes whatever the flow count."""

    def __init__(self, sim: Simulator, refresh_interval: float = 0.5,
                 stall_timeout: Optional[float] = None) -> None:
        if getattr(sim, "fluid", None) is not None:
            raise RuntimeError("simulator already has a fluid network")
        self.sim = sim
        sim.fluid = self
        self.refresh_interval = refresh_interval
        self.stall_timeout = stall_timeout
        # Active + stalled flows in open order (a dict used as an ordered
        # set: a finished flow leaves in O(1)).
        self.flows: dict[FluidFlow, None] = {}
        self._links: dict[int, FluidLink] = {}   # id(pipe) -> FluidLink
        self._routes: dict[tuple, FluidPath] = {}
        self._conduits: dict[tuple, bool] = {}
        self._watched_links: set[int] = set()
        self._watched_clouds: set[int] = set()
        self._solve_scheduled = False
        self._refresh_timer = None
        self._flow_seq = 0
        # Flow columns, one entry per flow ever opened (FluidFlow._i): bytes
        # delivered, rate, settle time, size (inf: duration mode), cap (the
        # window's or the slow-start ramp's), the instant of the armed ETA
        # cohort (inf: unarmed), state, and the path's index in _graph. A
        # solve or a fire works on np.asarray views of them, held only in
        # locals: a column cannot grow while a view of it is alive.
        (self._delivered, self._rate, self._last, self._size, self._cap,
         self._eta) = (array("d") for _ in range(6))
        self._state, self._pidx = array("b"), array("i")
        self._handles: list[Optional[FluidFlow]] = []   # None once finished
        self._ramp_timers: dict[int, object] = {}
        self._stall_timers: dict[int, object] = {}
        self._waiting: dict[int, FluidFlow] = {}   # `done` read before it resolved
        self._rate_caps: dict[Optional[str], object] = {}
        self._graph = PathTable()   # the paths flows ride; _pidx indexes it
        # Completion cohorts: the flows whose ETA (or delivery) is one instant.
        self._etas: dict[float, _Cohort] = {}
        self._deliveries: dict[float, _Cohort] = {}
        m = sim.metrics.scope("fluid")
        self._m_opened = m.counter("flows.opened")
        self._m_completed = m.counter("flows.completed")
        self._m_aborted = m.counter("flows.aborted")
        self._m_stalls = m.counter("flows.stalls")
        self._m_active = m.gauge("flows.active")
        self._m_solves = m.counter("solves")
        self._m_rate_changes = m.counter("rate_changes")
        self._m_bytes = m.counter("bytes.delivered")

    # -- capacity graph -------------------------------------------------
    def link_for(self, link, direction: str = "ab") -> FluidLink:
        """The FluidLink bound to one direction of a packet-plane
        :class:`~repro.net.l2.Link` (cached; subscribes to the link's
        change notifications on first use)."""
        pipe = link.ab if direction == "ab" else link.ba
        cached = self._links.get(id(pipe))
        if cached is not None:
            return cached
        flink = FluidLink(f"{link.name}.{direction}", pipe=pipe)
        self._links[id(pipe)] = flink
        if id(link) not in self._watched_links:
            link.add_watcher(self._on_link_change)
            self._watched_links.add(id(link))
        return flink

    def watch_cloud(self, cloud) -> None:
        """Subscribe to a WAN cloud's partition/heal notifications."""
        if id(cloud) not in self._watched_clouds:
            cloud.add_watcher(self._on_cloud_change)
            self._watched_clouds.add(id(cloud))

    def add_route(self, src: str, dst_ip, path: FluidPath) -> None:
        """Register the path a flow from host ``src`` to ``dst_ip``
        rides (apps resolve routes by ``(host.name, str(dst_ip))``)."""
        if path.cloud is not None:
            self.watch_cloud(path.cloud)
        self._routes[(src, str(dst_ip))] = path

    def route(self, src: str, dst_ip) -> FluidPath:
        try:
            return self._routes[(src, str(dst_ip))]
        except KeyError:
            raise KeyError(f"no fluid route {src} -> {dst_ip}; "
                           "register one with add_route()/fluidify()")

    def path_rate(self, path: FluidPath) -> float:
        """Steady goodput estimate for a lone flow on ``path``: the
        bottleneck link's fluid-visible capacity over its consumption
        factor. Apps use this to decide when TCP ramp-up would already
        saturate the path (e.g. sizing slow-start latency)."""
        rate = math.inf
        for link, factor in path.links:
            rate = min(rate, link.available(UTIL_FLOOR) / factor)
        return rate

    # -- WAV tunnel conduits -------------------------------------------
    @staticmethod
    def conduit_key(a: str, b: str) -> tuple:
        return tuple(sorted((a, b)))

    def set_conduit(self, key: tuple, up: bool) -> None:
        """Driver hook: a WAV tunnel between the key's two endpoints
        came up / died. Flows riding it stall or resume accordingly."""
        key = self.conduit_key(*key)
        if self._conduits.get(key) == up:
            return
        self._conduits[key] = up
        self._schedule_solve()

    def conduit_up(self, key: tuple) -> bool:
        return self._conduits.get(key, True)

    # -- flow lifecycle -------------------------------------------------
    def open(self, src: Optional[str] = None, dst_ip=None, *,
             path: Optional[FluidPath] = None, name: Optional[str] = None,
             **options) -> FluidFlow:
        """Open one fluid bulk transfer on ``path`` (or the route from
        ``src`` to ``dst_ip``): a cohort of one (:meth:`open_many`).

        Returns the :class:`FluidFlow`; wait on ``flow.done`` for
        completion (sized flows) or :meth:`FluidFlow.close` it
        (duration mode)."""
        if path is None:
            path = self.route(src, dst_ip)
        if name is None:
            name = f"flow{self._flow_seq}"
        return self.open_many([path], [name], **options)[0]

    def open_many(self, paths: list, names: list, *,
                  size_bytes: Optional[int] = None,
                  send_buf: int = 262144, recv_buf: int = 262144,
                  ramp: bool = True, deliver_offset: Optional[float] = None,
                  cc: Optional[str] = None) -> list[FluidFlow]:
        """Open one flow per ``(paths[k], names[k])``, in that order,
        sharing the keyword options, and (re)solve the share allocation
        once. Columns, trace rows and calendar entries come out as ``len(
        paths)`` calls of :meth:`open` would leave them; per-path work is
        done once per distinct path."""
        sim = self.sim
        now, first, n = sim.now, len(self._state), len(paths)
        if len(names) != n:
            raise ValueError(f"open_many: {n} paths but {len(names)} names")
        if not n:
            return []
        self._flow_seq += n
        if cc not in self._rate_caps:
            self._rate_caps[cc] = cc_class(cc or "reno").rate_cap
        # Per distinct path: index, window, delivery offset and slow start.
        # The initial window goes out as one burst (delivered "instantly" on
        # the fluid clock; propagation is deliver_offset), then the rate cap
        # doubles each RTT starting from 2*IW/RTT.
        keys = list(map(id, paths))
        per = {}
        for key, path in dict(zip(keys, paths)).items():
            rtt, iw = path.rtt, INITIAL_CWND_SEGMENTS * path.mss
            win = window_rate_bps(send_buf, recv_buf, rtt)
            burst, ceiling, ramps = 0.0, win, ramp and win > 2 * iw * 8.0 / rtt
            if ramps:
                burst = float(iw if size_bytes is None else min(iw, size_bytes))
                ceiling = 2 * iw * 8.0 / rtt
            per[key] = (self._graph.index(path), win,
                        rtt / 2.0 if deliver_offset is None else deliver_offset,
                        burst, ceiling, ramps,
                        size_bytes is not None and burst >= size_bytes)   # fits in the IW
        # The same, as one key -> value dict per column.
        pidx, window, offset, delivered, cap, ramped, fits = (
            dict(zip(per, column)) for column in zip(*per.values()))
        handles = [FluidFlow(self, i, name, window[key], cc, offset[key])
                   for i, name, key in zip(range(first, first + n), names, keys)]
        self._delivered.extend(array("d", map(delivered.__getitem__, keys)))
        self._rate.extend(array("d", (0.0,)) * n)
        self._last.extend(array("d", (now,)) * n)
        self._size.extend(array("d", (_INF if size_bytes is None else size_bytes,)) * n)
        self._cap.extend(array("d", map(cap.__getitem__, keys)))
        self._eta.extend(array("d", (_INF,)) * n)
        self._state.extend(array("b", (_ACTIVE,)) * n)
        self._pidx.extend(array("i", map(pidx.__getitem__, keys)))
        self._handles.extend(handles)
        self._m_opened.add(n)
        rows = list(zip(repeat(now), names,
                        repeat(-1 if size_bytes is None else size_bytes)))
        live = handles
        if any(ramped.values()) or any(fits.values()):
            live = self._open_calendar(handles, keys, ramped, fits, rows)
        else:
            sim.trace.event_rows("fluid.open", ("flow", "size"), rows)
            self._arm_cohort()
        if live:
            self.flows.update(dict.fromkeys(live))
            self._m_active.set(len(self.flows))
        return handles

    def _open_calendar(self, handles: list, keys: list, ramped: dict,
                       fits: dict, rows: list) -> list:
        """The opening cohort's per-flow calendar work, in the order one
        open at a time pushes it: a ramp timer per ramped flow, a flow that
        fits in its initial window completed in place (its ``fluid.complete``
        row right after its ``fluid.open`` row), and the re-solve and the
        refresh timer after the first flow that stays. Returns the flows
        that stay, in open order."""
        live, filed = [], 0
        for k, (flow, key) in enumerate(zip(handles, keys)):
            i = flow._i
            if fits[key]:
                self.sim.trace.event_rows("fluid.open", ("flow", "size"), rows[filed:k + 1])
                filed = k + 1
                self._complete(np.array([i]), live=False)
                continue
            if ramped[key]:
                self._ramp_timers[i] = self.sim.timer(
                    self._graph.paths[self._pidx[i]].rtt, partial(self._ramp_step, i))
            if not live:
                self._arm_cohort()
            live.append(flow)
        self.sim.trace.event_rows("fluid.open", ("flow", "size"), rows[filed:])
        return live

    def _arm_cohort(self) -> None:
        """A cohort with flows that stay asks for one re-solve and keeps
        the refresh timer running."""
        self._schedule_solve()
        self._keep_refreshing()

    def _keep_refreshing(self) -> None:
        """Tick while some open flow is not stalled (a heal asks a solve)."""
        if (self._refresh_timer is None and self.refresh_interval
                and (np.asarray(self._state) == _ACTIVE).any()):
            self._refresh_timer = self.sim.timer(self.refresh_interval,
                                                 self._refresh_tick)

    def _ramp_step(self, i: int) -> None:
        cap = self._cap[i] * 2.0
        window = self._handles[i].window_bps
        if cap >= window:
            self._cap[i] = window   # the window cap takes over
            del self._ramp_timers[i]
        else:
            self._cap[i] = cap
            self._ramp_timers[i] = self.sim.timer(
                self._graph.paths[self._pidx[i]].rtt, partial(self._ramp_step, i))
        self._schedule_solve()

    def _stall_expired(self, i: int) -> None:
        del self._stall_timers[i]
        if self._state[i] == _STALLED:
            self._abort(self._handles[i], "stall_timeout")

    def _settle(self, slots: np.ndarray, now: float) -> None:
        """Bank each flow's progress since its last settle."""
        delivered, rate = np.asarray(self._delivered), np.asarray(self._rate)
        last, state = np.asarray(self._last), np.asarray(self._state)
        moving = slots[(state[slots] == _ACTIVE) & (last[slots] < now)]
        delivered[moving] += rate[moving] * (now - last[moving]) / 8.0
        last[slots] = now

    def _cancel_timers(self, slots: np.ndarray) -> None:
        for timers in (self._ramp_timers, self._stall_timers):
            if timers:
                for i in slots.tolist():
                    if i in timers:
                        timers.pop(i).cancel()
        for i in slots[np.asarray(self._eta)[slots] != _INF].tolist():
            self._disarm(i)

    def _close(self, flow: FluidFlow) -> None:
        slots = np.array([flow._i])
        self._settle(slots, self.sim.now)
        self._complete(slots, live=True)

    def _abort(self, flow: FluidFlow, reason: str) -> None:
        i, sim = flow._i, self.sim
        slots = np.array([i])
        self._settle(slots, sim.now)
        self._cancel_timers(slots)
        del self.flows[flow]
        self._handles[i] = None
        self._m_active.set(len(self.flows))
        delivered = self._delivered[i]
        self._m_bytes.add(delivered)
        self._state[i] = _ABORTED
        self._m_aborted.add()
        sim.trace.event("fluid.abort", flow=flow.name, reason=reason,
                        delivered=round(delivered))
        exc = FluidAborted(f"{flow.name}: {reason}")
        done = flow._done
        if done is None:
            flow._done = _resolved(sim, exc=exc)
        else:
            del self._waiting[i]
            done.fail(exc)
            done.defuse()  # waiters still see it; unwaited aborts don't crash
        self._schedule_solve()

    def _complete(self, slots: np.ndarray, live: bool) -> None:
        """Complete ``slots`` (settled, in order): one pass over the columns,
        one loop for the handles and deliveries, the trace rows filed
        together. A live flow leaves ``flows``; the re-solve goes right
        after the first one's delivery."""
        sim = self.sim
        now = sim.now
        self._cancel_timers(slots)
        np.asarray(self._state)[slots] = _DONE
        amounts = np.asarray(self._delivered)[slots].tolist()
        self._m_completed.add(len(amounts))
        total = self._m_bytes.value
        for amount in amounts:   # in flow order: a float sum's last bit depends on it
            total += amount
        self._m_bytes.value = total
        handles, flows, rows = self._handles, self.flows, []
        fresh = {}   # instant -> (its cohort, the flows this call adds)
        when = members = None
        first = live
        for i, amount in zip(slots.tolist(), amounts):
            flow = handles[i]
            handles[i] = None
            if live:
                del flows[flow]
            rows.append((now, flow.name, round(amount), round(now - flow.opened_at, 6)))
            offset = flow.deliver_offset
            if offset > 0:
                if now + offset != when:
                    when = now + offset
                    entry = fresh.get(when)
                    if entry is None:
                        entry = fresh[when] = (self._delivery_cohort(when, offset), [])
                    members = entry[1]
                members.append(i)
            else:
                self._resolve(i)
            if first:
                first = False
                self._schedule_solve()
        sim.trace.event_rows("fluid.complete", ("flow", "delivered", "seconds"), rows)
        # This call put entries on the calendar only for now and for the
        # other cohorts' instants: each cohort stays open to a later join.
        for cohort, members in fresh.values():
            cohort.chunks.append(np.array(members, dtype=np.int64))
            cohort.seq = sim._seq
        if live:
            self._m_active.set(len(flows))

    def _delivery_cohort(self, when: float, offset: float) -> _Cohort:
        """The instant's delivery cohort while nothing else was put on the
        calendar for ``when`` since it last took flows, so its members
        resolve where their own entries would; else a new one behind."""
        sim, cohort = self.sim, self._deliveries.get(when)
        if cohort is None or (cohort.seq != sim._seq and any(
                at == when and seq > cohort.seq for at, seq, *_ in sim._calendar)):
            cohort = self._deliveries[when] = _Cohort(None)
            cohort.timer = sim.timer(offset, partial(self._fire_deliveries, cohort))
        return cohort

    def _resolve(self, i: int) -> None:
        self._state[i] = _DELIVERED
        flow = self._waiting.pop(i, None)
        if flow is not None:
            flow._done.succeed(flow)

    def _fire_deliveries(self, cohort: _Cohort) -> None:
        """Succeed ``done`` of every flow whose last byte lands now."""
        if self._deliveries.get(self.sim.now) is cohort:
            del self._deliveries[self.sim.now]
        members = cohort.members()
        np.asarray(self._state)[members] = _DELIVERED
        if self._waiting:
            for i in members.tolist():
                self._resolve(i)

    # -- ETA cohorts ----------------------------------------------------
    def _arm(self, slots: np.ndarray, etas: np.ndarray) -> None:
        """Arm each flow's ETA on its instant's cohort, in flow order. A
        re-arm leaves its old cohort first, which may cancel that
        instant's timer; runs of first-time arms between re-arms join
        their cohorts one instant at a time."""
        now = self.sim.now
        delays = etas - now
        whens = now + delays   # the timer's own instant; now + (eta - now) may not be eta
        eta = np.asarray(self._eta)
        n = len(slots)
        start = 0
        for cut in np.flatnonzero(eta[slots] != _INF).tolist() + [n]:
            if cut > start:
                self._join_etas(slots[start:cut], whens[start:cut],
                                delays[start:cut])
                eta[slots[start:cut]] = whens[start:cut]
            if cut < n:
                self._disarm(int(slots[cut]))
            start = cut

    def _join_etas(self, slots: np.ndarray, whens: np.ndarray,
                   delays: np.ndarray) -> None:
        """Add first-time arms to their cohorts; an instant's first flow
        arms its timer, so timers are made in first-appearance order."""
        cohorts = self._etas
        for f, at in by_instant(whens):
            when = float(whens[f])
            cohort = cohorts.get(when)
            if cohort is None:
                cohort = cohorts[when] = _Cohort(
                    self.sim.timer(float(delays[f]), self._fire_etas))
            cohort.chunks.append(slots[at])
            cohort.armed += len(at)

    def _disarm(self, i: int) -> None:
        """Lazy: the flow stays in its cohort for the fire to skip, but
        the last armed flow out cancels the instant's timer."""
        when = self._eta[i]
        if when != _INF:
            self._eta[i] = _INF
            cohort = self._etas[when]
            cohort.armed -= 1
            if not cohort.armed:
                cohort.timer.cancel()
                del self._etas[when]

    def _fire_etas(self) -> None:
        """Settle the cohort's still-armed flows in one pass; complete
        those with no bytes left and re-solve for the rest (their rate
        dropped since the ETA was armed)."""
        now = self.sim.now
        members = self._etas.pop(now).members()
        delivered, size, eta = (np.asarray(self._delivered), np.asarray(self._size),
                                np.asarray(self._eta))
        # Still armed here (else re-armed, stalled or finished). A flow left
        # lazily and re-armed on this same instant is listed twice and
        # fires once, at its first position.
        members = first_occurrences(members[eta[members] == now])
        eta[members] = _INF
        self._settle(members, now)
        sizes = size[members]
        rem = np.maximum(sizes - delivered[members], 0.0)
        finished = rem <= np.maximum(1.0, _EPS * sizes)
        if len(members) and not finished[0]:
            self._schedule_solve()   # right after the first flow, as one at a time
        done = members[finished]
        if len(done):
            delivered[done] = size[done]
            self._complete(done, live=True)

    # -- re-solve triggers ----------------------------------------------
    def _on_link_change(self, _link) -> None:
        self._schedule_solve()

    def _on_cloud_change(self, _cloud) -> None:
        self._schedule_solve()

    def _schedule_solve(self) -> None:
        """Dirty-flag + one fast-lane event: any number of triggers at
        the same timestamp collapse into a single waterfill pass."""
        if not self._solve_scheduled:
            self._solve_scheduled = True
            self.sim.call_in(0.0, self._solve_cb)

    def _solve_cb(self) -> None:
        if self._solve_scheduled:
            self.solve_now()

    def _refresh_tick(self) -> None:
        self._refresh_timer = None
        if not self.flows:
            return
        # Periodic hybrid refresh: re-sample packet utilization so long
        # fluid flows track packet traffic that starts or stops mid-run.
        self.solve_now()
        self._keep_refreshing()

    # -- the solver -----------------------------------------------------
    def solve_now(self) -> None:
        """Settle progress, re-check path health, waterfill, re-arm
        completion ETAs: each one pass over the live flows, in open order."""
        self._solve_scheduled = False
        now = self.sim.now
        self._m_solves.add()
        if not self.flows:
            return
        live = np.fromiter((f._i for f in self.flows), np.int64, len(self.flows))
        self._settle(live, now)
        delivered, rate, size, eta = (np.asarray(self._delivered), np.asarray(self._rate),
                                      np.asarray(self._size), np.asarray(self._eta))
        # Stall / resume on path health, evaluated once per path.
        paths = np.asarray(self._pidx)[live]
        why = {p: self._graph.paths[p].blocked(self) for p in np.unique(paths).tolist()}
        blocked = np.isin(paths, [p for p, w in why.items() if w is not None])
        stalled = np.asarray(self._state)[live] == _STALLED
        for k in np.flatnonzero(blocked != stalled).tolist():
            self._turn(int(live[k]), why[int(paths[k])])
        active = live[~blocked]
        if not len(active):
            return
        for link in self._links.values():
            link.sample_packet_util(now)
        new = self._waterfill(active)

        # Apply rates and (re)arm completion ETAs.
        changed = np.abs(new - rate[active]) > np.maximum(1e-6, 1e-9 * new)
        n_changed = int(changed.sum())
        if n_changed:
            rate[active[changed]] = new[changed]
            self._m_rate_changes.add(n_changed)
        sized = active[size[active] != _INF]
        moving = sized[rate[sized] > 0]
        etas = now + np.maximum(size[moving] - delivered[moving], 0.0) * 8.0 / rate[moving]
        # Re-arm only when the new ETA is *earlier* than the armed one (a
        # later ETA just means the cohort fires early, finds bytes
        # remaining, and re-solves — see _fire_etas).
        arm = etas < eta[moving] - 1e-9
        if arm.any():
            self._arm(moving[arm], etas[arm])

    def _turn(self, i: int, why: Optional[str]) -> None:
        """Stall an active flow whose path is blocked (``why``) or resume
        a stalled one whose path healed."""
        flow, sim = self._handles[i], self.sim
        if why is not None:
            self._state[i] = _STALLED
            self._rate[i] = 0.0
            self._m_stalls.add()
            sim.trace.event("fluid.stall", flow=flow.name, reason=why)
            self._disarm(i)
            if self.stall_timeout is not None and i not in self._stall_timers:
                self._stall_timers[i] = sim.timer(
                    self.stall_timeout, partial(self._stall_expired, i))
        else:
            self._state[i] = _ACTIVE
            self._keep_refreshing()
            sim.trace.event("fluid.resume", flow=flow.name)
            timer = self._stall_timers.pop(i, None)
            if timer is not None:
                timer.cancel()

    def _waterfill(self, active: np.ndarray) -> np.ndarray:
        """Each active flow's cap and its path's (flow, link) pairs,
        handed to :func:`~repro.net.fluid.waterfill.waterfill`."""
        paths = np.asarray(self._pidx)[active]
        pair_flow, pair_link, factors, used = self._graph.incidence(paths)
        avail = np.array([self._graph.links[k].available(UTIL_FLOOR)
                          for k in used.tolist()])
        caps = np.asarray(self._cap)[active]
        for p in np.unique(paths).tolist():
            path = self._graph.paths[p]
            loss = path.loss()
            if loss > 0.0:
                on_path = np.flatnonzero(paths == p)
                ccs = [self._handles[i].cc for i in active[on_path].tolist()]
                for cc in dict.fromkeys(ccs):
                    at = on_path[[c == cc for c in ccs]]
                    caps[at] = np.minimum(caps[at], self._rate_caps[cc](path.mss, path.rtt, loss))
        return waterfill(caps, pair_flow, pair_link, factors, avail)

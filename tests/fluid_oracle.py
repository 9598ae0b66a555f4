"""The object-per-flow fluid plane, kept as the columnar plane's oracle.

This is :mod:`repro.net.fluid` as it was before flow state moved into
per-network columns: every flow an object with its own fields and an
eager ``done`` event, solves and completion cohorts walked one flow at
a time. ``tests/test_fluid_plane.py`` drives both over the same random
mixes and requires the same outcome, bit for bit. Links, paths and the
abort exception are the shared ones from :mod:`repro.net.fluid`.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.cc import INITIAL_CWND_SEGMENTS, cc_class, window_rate_bps
from repro.net.fluid import FluidAborted, FluidLink, FluidPath
from repro.sim.engine import Event, Simulator

_EPS = 1e-9


class FluidFlow:
    """One bulk transfer on the fluid plane.

    ``size_bytes=None`` makes a duration-mode flow (netperf style): it
    runs until :meth:`close` and reports ``delivered``. Otherwise the
    flow completes when ``delivered`` reaches ``size_bytes`` and
    ``done`` succeeds ``deliver_offset`` seconds later (last-byte
    propagation to the receiver)."""

    __slots__ = ("net", "name", "path", "size_bytes", "delivered", "rate",
                 "window_bps", "mss", "state", "done", "opened_at",
                 "deliver_offset", "cc", "_rate_cap", "_last_t", "_cap_ramp",
                 "_ramp_timer", "_done_eta", "_stall_timer", "_new_rate")

    def __init__(self, net: "FluidNetwork", name: str, path: FluidPath,
                 size_bytes: Optional[int], window_bps: float,
                 ramp: bool, deliver_offset: float,
                 cc: Optional[str] = None) -> None:
        sim = net.sim
        self.net = net
        self.name = name
        self.path = path
        self.size_bytes = size_bytes
        self.delivered = 0.0
        self.rate = 0.0            # allocated goodput, bits/s
        self.window_bps = window_bps
        self.mss = path.mss
        self.state = "active"
        # The loss response is the named algorithm's steady-state curve;
        # unnamed flows get Reno's (Mathis), the calibrated default every
        # agreement gate was tuned on.
        self.cc = cc
        self._rate_cap = cc_class(cc or "reno").rate_cap
        self.done: Event = Event(sim)
        self.opened_at = sim.now
        self.deliver_offset = deliver_offset
        self._last_t = sim.now
        self._ramp_timer = None
        self._done_eta = math.inf   # instant of the armed ETA cohort; inf = unarmed
        self._stall_timer = None
        self._new_rate = 0.0
        # Slow start: the initial window goes out as one burst (delivered
        # "instantly" on the fluid clock; propagation is deliver_offset),
        # then the rate cap doubles each RTT starting from 2*IW/RTT.
        iw = INITIAL_CWND_SEGMENTS * self.mss
        if ramp and window_bps > 2 * iw * 8.0 / path.rtt:
            self.delivered = float(min(iw, size_bytes)) if size_bytes is not None else float(iw)
            self._cap_ramp = 2 * iw * 8.0 / path.rtt
            self._ramp_timer = sim.timer(path.rtt, self._ramp_step)
        else:
            self._cap_ramp = math.inf

    # -- caps -----------------------------------------------------------
    def cap_bps(self) -> float:
        cap = min(self.window_bps, self._cap_ramp)
        loss = self.path.loss()
        if loss > 0.0:
            cap = min(cap, self._rate_cap(self.mss, self.path.rtt, loss))
        return cap

    def _ramp_step(self) -> None:
        self._cap_ramp *= 2.0
        if self._cap_ramp >= self.window_bps:
            self._cap_ramp = math.inf  # window cap takes over
            self._ramp_timer = None
        else:
            self._ramp_timer = self.net.sim.timer(self.path.rtt, self._ramp_step)
        self.net._schedule_solve()

    # -- progress -------------------------------------------------------
    def progress(self) -> float:
        """Delivered bytes as of now (read-only; does not settle)."""
        if self.state != "active":
            return self.delivered
        return self.delivered + self.rate * (self.net.sim.now - self._last_t) / 8.0

    def _settle(self, now: float) -> None:
        if self.state == "active" and now > self._last_t:
            self.delivered += self.rate * (now - self._last_t) / 8.0
        self._last_t = now

    def remaining(self) -> float:
        if self.size_bytes is None:
            return math.inf
        return max(self.size_bytes - self.delivered, 0.0)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Finish a duration-mode flow (or cut a sized flow short)."""
        if self.state in ("done", "aborted"):
            return
        self.net._finish(self, aborted=False)

    def abort(self, reason: str = "aborted") -> None:
        if self.state in ("done", "aborted"):
            return
        self.net._finish(self, aborted=True, reason=reason)

    def _cancel_timers(self) -> None:
        for timer in (self._ramp_timer, self._stall_timer):
            if timer is not None:
                timer.cancel()
        self._ramp_timer = self._stall_timer = None
        self.net._disarm_eta(self)

    def _stall_expired(self) -> None:
        self._stall_timer = None
        if self.state == "stalled":
            self.abort("stall_timeout")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FluidFlow({self.name}, {self.state}, "
                f"rate={self.rate / 1e6:.2f}Mbps, "
                f"delivered={self.delivered:.0f}B)")


class FluidNetwork:
    """Per-simulator fluid plane: capacity graph, routes, solver.

    Registers itself as ``sim.fluid`` so apps and the WAVNet driver can
    find it without plumbing. Construction is cheap; nothing runs until
    the first flow opens."""

    def __init__(self, sim: Simulator, refresh_interval: float = 0.5,
                 util_floor: float = 0.01,
                 stall_timeout: Optional[float] = None) -> None:
        if getattr(sim, "fluid", None) is not None:
            raise RuntimeError("simulator already has a fluid network")
        self.sim = sim
        sim.fluid = self
        self.refresh_interval = refresh_interval
        self.util_floor = util_floor
        self.stall_timeout = stall_timeout
        # Active + stalled flows in open order (a dict used as an ordered
        # set: solves walk it in order, a finished flow leaves in O(1)).
        self.flows: dict[FluidFlow, None] = {}
        self._links: dict[int, FluidLink] = {}   # id(pipe) -> FluidLink
        self._routes: dict[tuple, FluidPath] = {}
        self._conduits: dict[tuple, bool] = {}
        self._watched_links: set[int] = set()
        self._watched_clouds: set[int] = set()
        self._solve_scheduled = False
        self._refresh_timer = None
        self._flow_seq = 0
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

    # ------------------------------------------------------------------
    # Capacity graph construction
    # ------------------------------------------------------------------
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
            rate = min(rate, link.available(self.util_floor) / factor)
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

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def open(self, src: Optional[str] = None, dst_ip=None, *,
             path: Optional[FluidPath] = None,
             size_bytes: Optional[int] = None,
             send_buf: int = 262144, recv_buf: int = 262144,
             ramp: bool = True, name: Optional[str] = None,
             deliver_offset: Optional[float] = None,
             cc: Optional[str] = None) -> FluidFlow:
        """Open a fluid bulk transfer and (re)solve the share allocation.

        Returns the :class:`FluidFlow`; wait on ``flow.done`` for
        completion (sized flows) or :meth:`FluidFlow.close` it
        (duration mode)."""
        if path is None:
            path = self.route(src, dst_ip)
        if name is None:
            name = f"flow{self._flow_seq}"
        self._flow_seq += 1
        window = window_rate_bps(send_buf, recv_buf, path.rtt)
        offset = path.rtt / 2.0 if deliver_offset is None else deliver_offset
        flow = FluidFlow(self, name, path, size_bytes, window, ramp, offset,
                         cc=cc)
        self._m_opened.add()
        self.sim.trace.event("fluid.open", flow=name,
                             size=size_bytes if size_bytes is not None else -1)
        if size_bytes is not None and flow.delivered >= size_bytes:
            # Fits in the initial window: delivered in one burst.
            self._complete_now(flow)
            return flow
        self.flows[flow] = None
        self._m_active.set(len(self.flows))
        self._schedule_solve()
        self._keep_refreshing()
        return flow

    def _keep_refreshing(self) -> None:
        """The refresh tick runs while some open flow is not stalled."""
        if (self._refresh_timer is None and self.refresh_interval
                and any(f.state == "active" for f in self.flows)):
            self._refresh_timer = self.sim.timer(self.refresh_interval,
                                                 self._refresh_tick)

    def _finish(self, flow: FluidFlow, aborted: bool, reason: str = "") -> None:
        flow._settle(self.sim.now)
        flow._cancel_timers()
        self.flows.pop(flow, None)
        self._m_active.set(len(self.flows))
        self._m_bytes.add(flow.delivered)
        if aborted:
            flow.state = "aborted"
            self._m_aborted.add()
            self.sim.trace.event("fluid.abort", flow=flow.name, reason=reason,
                                 delivered=round(flow.delivered))
            exc = FluidAborted(f"{flow.name}: {reason}")
            flow.done.fail(exc)
            flow.done.defuse()  # waiters still see it; unwaited aborts don't crash
        else:
            flow.state = "done"
            self._m_completed.add()
            self.sim.trace.event("fluid.complete", flow=flow.name,
                                 delivered=round(flow.delivered),
                                 seconds=round(self.sim.now - flow.opened_at, 6))
            self._deliver(flow)
        self._schedule_solve()

    def _complete_now(self, flow: FluidFlow) -> None:
        flow._cancel_timers()  # the slow-start ramp has nothing left to do
        flow.state = "done"
        self._m_completed.add()
        self._m_bytes.add(flow.delivered)
        self.sim.trace.event("fluid.complete", flow=flow.name,
                             delivered=round(flow.delivered), seconds=0.0)
        self._deliver(flow)

    def _join(self, cohorts: dict, delay: float, flow: FluidFlow,
              fire) -> float:
        """Add ``flow`` to the cohort ``delay`` from now and return that
        instant; only the instant's first flow arms a timer."""
        when = self.sim.now + delay   # the timer's own instant; now + (eta - now) may not be eta
        cohort = cohorts.get(when)
        if cohort is None:
            cohort = cohorts[when] = _Cohort()
            cohort.timer, cohort.armed = self.sim.timer(delay, fire), 0
        cohort.append(flow)
        cohort.armed += 1
        return when

    def _arm_eta(self, flow: FluidFlow, eta: float) -> None:
        self._disarm_eta(flow)
        flow._done_eta = self._join(self._etas, eta - self.sim.now, flow,
                                    self._fire_etas)

    def _disarm_eta(self, flow: FluidFlow) -> None:
        """Lazy: the flow stays in its cohort for the fire to skip, but
        the last armed flow out cancels the instant's timer."""
        when = flow._done_eta
        if when != math.inf:
            flow._done_eta = math.inf
            cohort = self._etas[when]
            cohort.armed -= 1
            if not cohort.armed:
                cohort.timer.cancel()
                del self._etas[when]

    def _fire_etas(self) -> None:
        now = self.sim.now
        for flow in self._etas.pop(now):
            if flow._done_eta == now:   # else re-armed, stalled or finished
                self._eta_fire(flow)

    def _deliver(self, flow: FluidFlow) -> None:
        """Succeed ``flow.done`` once its last byte has propagated. The
        instant's cohort takes the flow unless another calendar entry for
        that instant was pushed since its last flow: then the flow starts
        a new cohort behind that entry, where its own entry would fire."""
        if flow.deliver_offset <= 0:
            flow.done.succeed(flow)
            return
        sim = self.sim
        when = sim.now + flow.deliver_offset
        cohort = self._deliveries.get(when)
        if cohort is None or any(at == when and seq > cohort.seq
                                 for at, seq, *_ in sim._calendar):
            cohort = self._deliveries[when] = _Cohort()
            cohort.timer = sim.timer(flow.deliver_offset,
                                     lambda: self._fire_deliveries(cohort))
        cohort.append(flow)
        cohort.seq = sim._seq

    def _fire_deliveries(self, cohort: "_Cohort") -> None:
        if self._deliveries.get(self.sim.now) is cohort:
            del self._deliveries[self.sim.now]
        for flow in cohort:
            flow.done.succeed(flow)

    # ------------------------------------------------------------------
    # Re-solve triggers
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # The solver
    # ------------------------------------------------------------------
    def solve_now(self) -> None:
        """Settle progress, re-check path health, waterfill, re-arm
        completion ETAs. Deterministic: iteration order is flow/link
        registration order everywhere."""
        self._solve_scheduled = False
        now = self.sim.now
        self._m_solves.add()
        # Settle, then stall / resume on path health (once per path).
        active: list[FluidFlow] = []
        blocked: dict[int, Optional[str]] = {}
        for flow in self.flows:
            flow._settle(now)
            why = blocked.get(id(flow.path), False)
            if why is False:
                why = blocked[id(flow.path)] = flow.path.blocked(self)
            if why is not None:
                if flow.state == "active":
                    flow.state = "stalled"
                    flow.rate = 0.0
                    self._m_stalls.add()
                    self.sim.trace.event("fluid.stall", flow=flow.name,
                                         reason=why)
                    self._disarm_eta(flow)
                    if self.stall_timeout is not None and flow._stall_timer is None:
                        flow._stall_timer = self.sim.timer(
                            self.stall_timeout, flow._stall_expired)
            else:
                if flow.state == "stalled":
                    flow.state = "active"
                    self._keep_refreshing()
                    self.sim.trace.event("fluid.resume", flow=flow.name)
                    if flow._stall_timer is not None:
                        flow._stall_timer.cancel()
                        flow._stall_timer = None
                active.append(flow)

        if active:
            for link in self._links.values():
                link.sample_packet_util(now)
            self._waterfill(active)

        # Apply rates and (re)arm completion ETAs.
        for flow in active:
            new = flow._new_rate
            if abs(new - flow.rate) > max(1e-6, 1e-9 * new):
                flow.rate = new
                self._m_rate_changes.add()
            if flow.size_bytes is None:
                continue
            eta = (now + flow.remaining() * 8.0 / flow.rate
                   if flow.rate > 0 else math.inf)
            # Re-arm only when the new ETA is *earlier* than the armed
            # one (a later ETA just means the cohort fires early, finds
            # bytes remaining, and re-solves — see _eta_fire).
            if eta < flow._done_eta - 1e-9:
                self._arm_eta(flow, eta)

    def _eta_fire(self, flow: FluidFlow) -> None:
        flow._done_eta = math.inf
        flow._settle(self.sim.now)
        if flow.remaining() <= max(1.0, _EPS * (flow.size_bytes or 1)):
            flow.delivered = float(flow.size_bytes)
            self._finish(flow, aborted=False)
        else:
            # Rate dropped since this ETA was armed; re-estimate.
            self._schedule_solve()

    def _waterfill(self, active: list[FluidFlow]) -> None:
        """Progressive filling: raise every unfrozen flow's goodput rate
        together; freeze flows at their cap and flows on saturated
        links; repeat. Heterogeneous per-(flow, link) consumption
        factors (header overhead, CPU seconds) are respected, so this is
        weighted max-min in goodput space."""
        # Gather the links in deterministic (registration-ish) order.
        entries: list[list] = []   # per link: [rem, sat_eps, [(idx, factor)...]]
        link_index: dict[int, int] = {}
        losses: dict[int, float] = {}   # id(path) -> path.loss(), once per path
        caps: list[float] = []
        rates: list[float] = []
        frozen: list[bool] = []
        for idx, flow in enumerate(active):
            path = flow.path
            loss = losses.get(id(path))
            if loss is None:
                loss = losses[id(path)] = path.loss()
            cap = min(flow.window_bps, flow._cap_ramp)   # as cap_bps()
            if loss > 0.0:
                cap = min(cap, flow._rate_cap(flow.mss, path.rtt, loss))
            caps.append(cap)
            rates.append(0.0)
            frozen.append(False)
            for link, factor in path.links:
                li = link_index.get(id(link))
                if li is None:
                    li = len(entries)
                    link_index[id(link)] = li
                    avail = link.available(self.util_floor)
                    sat_eps = max(1e-6, avail * 1e-9) if math.isfinite(avail) else 0.0
                    entries.append([avail, sat_eps, []])
                entries[li][2].append((idx, factor))
        n_unfrozen = len(active)
        guard = 0
        while n_unfrozen > 0:
            guard += 1
            if guard > 2 * (len(active) + len(entries)) + 4:  # pragma: no cover
                break  # numerical safety; freeze everything as-is
            # Each link's unfrozen weight, once: `frozen` holds until `inc` is applied.
            inc = math.inf
            weights: list[float] = []
            for rem, _sat_eps, users in entries:
                weight = 0.0
                for idx, factor in users:
                    if not frozen[idx]:
                        weight += factor
                weights.append(weight)
                if weight > 0.0:
                    share = rem / weight
                    if share < inc:
                        inc = share
            for idx in range(len(active)):
                if not frozen[idx]:
                    room = caps[idx] - rates[idx]
                    if room < inc:
                        inc = room
            if inc == math.inf:
                break  # no finite constraint (all caps infinite, links unshaped)
            if inc > 0.0:
                for entry, weight in zip(entries, weights):
                    entry[0] -= inc * weight
                for idx in range(len(active)):
                    if not frozen[idx]:
                        rates[idx] += inc
            # Freeze cap-limited flows.
            progressed = False
            for idx in range(len(active)):
                if not frozen[idx] and rates[idx] >= caps[idx] - max(1e-6, caps[idx] * 1e-12):
                    frozen[idx] = True
                    n_unfrozen -= 1
                    progressed = True
            # Freeze flows on saturated links.
            for rem, sat_eps, users in entries:
                if rem <= sat_eps:
                    for idx, _factor in users:
                        if not frozen[idx]:
                            frozen[idx] = True
                            n_unfrozen -= 1
                            progressed = True
            if not progressed and inc <= 0.0:  # pragma: no cover
                break
        for idx, flow in enumerate(active):
            flow._new_rate = rates[idx]


class _Cohort(list):
    """One instant's flows in arm order, its timer, how many of the flows
    are still armed on it and, for a delivery cohort, the kernel's last
    sequence number when it took a flow."""

    __slots__ = ("timer", "armed", "seq")

"""A fluid flow's handle: :class:`FluidFlow` reads its entry of the
network's flow columns (:class:`~repro.net.fluid.FluidNetwork` owns them
and every state change); a flow that resolved before anyone waited gets
an already-processed ``done`` from :func:`_resolved`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.fluid.waterfill import FluidPath
from repro.sim.engine import _PROCESSED, Event, Simulator

if TYPE_CHECKING:
    from repro.net.fluid import FluidNetwork

# A flow's state column: _DONE has completed but its last byte is still
# in flight; _DELIVERED has resolved ``done``.
_ACTIVE, _STALLED, _DONE, _DELIVERED, _ABORTED = range(5)
_STATE_NAMES = ("active", "stalled", "done", "done", "aborted")


def _resolved(sim: Simulator, value=None, exc: Optional[BaseException] = None) -> Event:
    """An event already processed: a waiter added now runs at once."""
    ev = Event(sim)
    ev._state = _PROCESSED
    ev.callbacks = None
    ev._value = value
    ev._exc = exc
    ev._defused = True
    return ev


class FluidFlow:
    """One bulk transfer on the fluid plane: a handle onto entry ``_i``
    (the open order) of its network's flow columns, which hold its
    delivered bytes, rate, settle time, size, cap, armed ETA, state and
    path; the properties read them.

    ``size_bytes=None`` makes a duration-mode flow (netperf style): it
    runs until :meth:`close` and reports ``delivered``. Otherwise the
    flow completes when ``delivered`` reaches ``size_bytes`` and
    ``done`` succeeds ``deliver_offset`` seconds later (last-byte
    propagation to the receiver). ``done`` is made on first read: read
    before the flow resolves, it is the pending event resolution
    triggers; read after, it is already processed with the same outcome
    (``done.value is flow``, or a defused :class:`FluidAborted`), so a
    flow nobody waits on costs no calendar entry. Read in the very
    instant of resolution, its waiters run at once, not later in it."""

    __slots__ = ("net", "name", "window_bps", "cc", "opened_at",
                 "deliver_offset", "_i", "_done")

    def __init__(self, net: "FluidNetwork", i: int, name: str,
                 window_bps: float, cc: Optional[str],
                 deliver_offset: float) -> None:
        self.net = net
        self._i = i
        self.name = name
        self.window_bps = window_bps
        self.cc = cc   # None: Reno's Mathis curve, the gates' calibrated default
        self.opened_at = net.sim.now
        self.deliver_offset = deliver_offset
        self._done: Optional[Event] = None

    @property
    def path(self) -> FluidPath:
        return self.net._graph.paths[self.net._pidx[self._i]]

    @property
    def delivered(self) -> float:
        return self.net._delivered[self._i]

    @property
    def rate(self) -> float:
        """Allocated goodput, bits/s."""
        return self.net._rate[self._i]

    @property
    def state(self) -> str:
        return _STATE_NAMES[self.net._state[self._i]]

    @property
    def done(self) -> Event:
        ev = self._done
        if ev is None:
            net = self.net
            if net._state[self._i] == _DELIVERED:
                ev = _resolved(net.sim, value=self)
            else:
                ev = Event(net.sim)
                net._waiting[self._i] = self
            self._done = ev
        return ev

    def cap_bps(self) -> float:
        cap = self.net._cap[self._i]   # min(window, slow-start ramp)
        path = self.path
        loss = path.loss()
        if loss > 0.0:
            cap = min(cap, self.net._rate_caps[self.cc](path.mss, path.rtt, loss))
        return cap

    # -- progress -------------------------------------------------------
    def progress(self) -> float:
        """Delivered bytes as of now (read-only; does not settle)."""
        net, i = self.net, self._i
        if net._state[i] != _ACTIVE:
            return net._delivered[i]
        return net._delivered[i] + net._rate[i] * (net.sim.now - net._last[i]) / 8.0

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Finish a duration-mode flow (or cut a sized flow short)."""
        if self.net._state[self._i] < _DONE:
            self.net._close(self)

    def abort(self, reason: str = "aborted") -> None:
        if self.net._state[self._i] < _DONE:
            self.net._abort(self, reason)

"""Layer-2 plumbing: ports, links, learning switches, software bridges.

The medium model:

* :class:`Port` — attachment point owned by a device (interface, switch,
  bridge, tap). ``transmit`` pushes a frame into whatever medium the port
  is connected to; ``deliver`` hands an arriving frame to the owner.
* :class:`Link` — full-duplex point-to-point wire with propagation delay,
  serialization at a configured bandwidth, a drop-tail queue, and optional
  random loss. This is also where ``tc``-style traffic shaping lives
  (shaping a link is just configuring its bandwidth/queue).
* :func:`patch` — a zero-cost back-to-back connection (VM vif to bridge
  port, tap to bridge port).
* :class:`Switch` — MAC-learning Ethernet switch; :class:`Bridge` is the
  in-host software variant (Linux ``brctl`` equivalent) with a per-frame
  CPU cost. A link that delivers to a switch folds the switch's forward
  delay into its own delivery (DESIGN §9, invariant 7).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush
from typing import Callable, Optional, Protocol

from repro.net.addresses import MacAddress
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.lifecycle import Component

__all__ = ["Bridge", "Link", "Port", "Switch", "patch"]

SWITCH_FORWARD_DELAY = 5e-6  # per-frame cost of a LAN switch
BRIDGE_FORWARD_DELAY = 15e-6  # per-frame cost of an in-host software bridge


class FrameHandler(Protocol):  # pragma: no cover - typing helper
    def on_frame(self, frame: EthernetFrame, port: "Port") -> None: ...


class Port:
    """Device attachment point. A port is connected to at most one medium."""

    __slots__ = ("owner", "name", "_medium", "up")

    def __init__(self, owner: FrameHandler, name: str = "") -> None:
        self.owner = owner
        self.name = name
        self._medium: Optional[Callable[[EthernetFrame], None]] = None
        self.up = True

    @property
    def connected(self) -> bool:
        return self._medium is not None

    def connect(self, medium: Callable[[EthernetFrame], None]) -> None:
        if self._medium is not None:
            raise RuntimeError(f"port {self.name!r} already connected")
        self._medium = medium

    def disconnect(self) -> None:
        self._medium = None

    def transmit(self, frame: EthernetFrame) -> None:
        """Push a frame out of the device into the medium (if any)."""
        if self._medium is not None and self.up:
            self._medium(frame)

    def deliver(self, frame: EthernetFrame) -> None:
        """Hand an arriving frame to the owning device."""
        if self.up:
            self.owner.on_frame(frame, self)


def patch(a: Port, b: Port) -> None:
    """Connect two ports back-to-back with zero delay (virtual patch cable);
    a switch with a patched port stops folding its delay into its links."""
    a.connect(b.deliver)
    b.connect(a.deliver)
    for port in (a, b):
        if isinstance(port.owner, Switch):
            port.owner._folded = False


class _Pipe:
    """One direction of a link: drop-tail FIFO -> transmitter -> propagation.

    ``busy_until`` is when the transmitter finishes the last frame it
    started; a frame offered before then waits in ``queue`` (``capacity``
    waiting plus the one in service, beyond that dropped and counted in
    ``drops``). Calendar entries per frame:

    * **Idle and lossless** — arrival scheduled at once for ``start + tx +
      latency`` (to a folding switch, its hop ``forward_delay`` later): one
      entry. Unshaped (``tx = 0``), loss is drawn at once.
    * **Queued** — a completion entry armed at ``busy_until`` starts it,
      so a reshape re-times only the frames still waiting: two entries.
    * **Lossy** — a frame started while ``loss > 0`` keeps a completion
      entry, which draws its loss when serialization ends: two entries.

    A frame takes the latency and loss in force when it starts serializing
    (DESIGN §9, idle-link bypass legality). A frame offered to a full
    queue at the instant its completion is due runs that completion first,
    so the order of two same-instant entries cannot drop it.
    ``bytes_sent``/``frames_sent`` count the frame in service once its
    transmission time has passed.
    """

    def __init__(self, sim: Simulator, dst: Port, latency: float,
                 bandwidth_bps: Optional[float], queue_capacity: int, loss: float,
                 loss_rng, name: str) -> None:
        self.sim = sim
        self.dst = dst
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.capacity = queue_capacity
        self.loss = loss
        self._loss_rng = loss_rng
        self.name = name
        self.queue: deque[EthernetFrame] = deque()
        self.busy_until = 0.0
        self.up = True  # admin state, mirrored from the owning Link
        self.drops = 0
        self.frames_lost = 0
        self.frames_dropped_down = 0  # offered while admin-down
        self._bytes = self._frames = 0  # every started frame, in service included
        self._last_size = 0
        self._armed = False  # a completion entry is on the calendar
        self._lossy = None  # (frame, arrival, loss) awaiting its draw
        self._complete_cb = self._complete  # bind once, not per frame
        self._switch = dst.owner if isinstance(dst.owner, Switch) else None

    @property
    def bytes_sent(self) -> int:
        return self._bytes - (self._last_size if self.sim.now < self.busy_until else 0)

    @property
    def frames_sent(self) -> int:
        return self._frames - (self.sim.now < self.busy_until)

    def send(self, frame: EthernetFrame) -> None:
        sim = self.sim
        now = sim.now
        if not self.up:
            self.frames_dropped_down += 1
        elif self._armed or now < self.busy_until:
            if len(self.queue) < self.capacity:
                self.queue.append(frame)
                if not self._armed:
                    self._arm()
            elif self._armed and self.busy_until == now:
                self._complete()  # due now: it frees a slot first
                self.send(frame)
            else:
                self.drops += 1
        elif self.loss > 0.0:
            self._start(frame)
        else:  # idle and lossless: _start and _land in one frame
            size = self._last_size = frame.size
            self._bytes += size
            self._frames += 1
            bw = self.bandwidth_bps
            end = self.busy_until = now + size * 8.0 / bw if bw else now
            sw, arrival = self._switch, end + self.latency
            sim._seq = seq = sim._seq + 1
            if sw is not None and sw._folded:
                heappush(sim._calendar, (arrival + sw.forward_delay, seq, None,
                                         partial(sw._hop, frame, self.dst, arrival, 0.0)))
            else:
                heappush(sim._calendar, (arrival, seq, None, partial(self.dst.deliver, frame)))

    def _arm(self) -> None:
        self._armed = True
        self.sim.call_at(self.busy_until, self._complete_cb)

    def _start(self, frame: EthernetFrame) -> None:
        now = self.sim.now
        size = self._last_size = frame.size
        self._bytes += size
        self._frames += 1
        bw = self.bandwidth_bps
        end = self.busy_until = now + size * 8.0 / bw if bw else now
        if end > now and self.loss > 0.0:
            self._lossy = (frame, end + self.latency, self.loss)
            self._arm()
            return
        self._land(frame, end + self.latency, self.loss)
        if end > now and self.queue:
            self._arm()

    def _land(self, frame: EthernetFrame, arrival: float, loss: float) -> None:
        if loss > 0.0 and self._loss_rng.random() < loss:
            self.frames_lost += 1
            return
        sw = self._switch
        if sw is not None and sw._folded:
            self.sim.call_at(arrival + sw.forward_delay,
                             partial(sw._hop, frame, self.dst, arrival, 0.0))
        else:
            self.sim.call_at(arrival, partial(self.dst.deliver, frame))

    def _complete(self) -> None:
        """``busy_until`` has come: draw a lossy frame's loss, start the next."""
        if not self._armed or self.busy_until > self.sim.now:
            return  # a send at the due instant has run this completion
        self._armed = False
        if self._lossy is not None:
            lossy, self._lossy = self._lossy, None
            self._land(*lossy)
        # A loop in case the pipe was unshaped while frames waited.
        queue = self.queue
        while queue and not self._armed:
            self._start(queue.popleft())


class Link(Component):
    """Full-duplex point-to-point link between two ports.

    ``bandwidth_bps=None`` means no serialization delay (used for the WAN
    cloud's internal pipes where the bottleneck is modeled at access
    links). ``loss`` is an i.i.d. per-frame drop probability.

    A link is a lifecycle :class:`~repro.sim.lifecycle.Component`:
    :meth:`admin_down` / :meth:`admin_up` (aliases of ``stop`` /
    ``restore``) model ``ip link set down`` — new frames are dropped
    and counted, frames already serialized or queued drain normally.
    """

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency: float = 0.0,
        bandwidth_bps: Optional[float] = None,
        queue_capacity: int = 128,
        loss: float = 0.0,
        name: str = "link",
    ) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0,1), got {loss}")
        self.name = name
        rng = sim.rng.stream(f"link.loss.{name}")
        self.ab = _Pipe(sim, b, latency, bandwidth_bps, queue_capacity, loss, rng, f"{name}.ab")
        self.ba = _Pipe(sim, a, latency, bandwidth_bps, queue_capacity, loss, rng, f"{name}.ba")
        a.connect(self.ab.send)
        b.connect(self.ba.send)
        self._watchers: list = []
        super().__init__(sim, "link", name)

    def add_watcher(self, fn) -> None:
        """Subscribe ``fn(link)`` to capacity-affecting changes (admin
        up/down, reshaping, loss changes). Used by the fluid plane to
        trigger re-solves; keep callbacks cheap and non-reentrant."""
        self._watchers.append(fn)

    def _notify_watchers(self) -> None:
        for fn in self._watchers:
            fn(self)

    def admin_down(self) -> None:
        self.stop()

    def admin_up(self) -> None:
        self.restore()

    def _on_stop(self) -> None:
        self.ab.up = self.ba.up = False
        self._notify_watchers()

    def _on_restore(self) -> None:
        self.ab.up = self.ba.up = True
        self._notify_watchers()

    def set_bandwidth(self, bandwidth_bps: Optional[float]) -> None:
        """``tc``-style reshaping of both directions."""
        self.ab.bandwidth_bps = bandwidth_bps
        self.ba.bandwidth_bps = bandwidth_bps
        self._notify_watchers()

    def set_latency(self, latency: float) -> None:
        self.ab.latency = latency
        self.ba.latency = latency
        self._notify_watchers()

    def set_loss(self, loss: float) -> None:
        """Reconfigure the i.i.d. per-frame drop probability mid-run
        (loss bursts); draws keep coming from the link's named stream."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0,1), got {loss}")
        self.ab.loss = loss
        self.ba.loss = loss
        self._notify_watchers()

    @property
    def frames_dropped_down(self) -> int:
        return self.ab.frames_dropped_down + self.ba.frames_dropped_down

    @property
    def total_bytes(self) -> int:
        return self.ab.bytes_sent + self.ba.bytes_sent


class Switch:
    """MAC-learning Ethernet switch.

    Frames to learned unicast MACs go out one port; broadcast and unknown
    destinations flood all other ports. ``forward_delay`` models the
    per-frame switching cost. While no port is patched, a link delivering
    to the switch runs :meth:`_hop` in one entry at arrival + delay.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        forward_delay: float = SWITCH_FORWARD_DELAY,
        mac_age_limit: float = 300.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_delay = forward_delay
        self.mac_age_limit = mac_age_limit
        self.ports: list[Port] = []
        self.mac_table: dict[MacAddress, tuple[Port, float]] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self._folded = True  # no port patched: links fold the delay

    def new_port(self, name: str = "") -> Port:
        port = Port(self, name or f"{self.name}.p{len(self.ports)}")
        self.ports.append(port)
        return port

    def remove_port(self, port: Port) -> None:
        self.ports.remove(port)
        for mac, (p, _t) in list(self.mac_table.items()):
            if p is port:
                del self.mac_table[mac]

    def lookup(self, mac: MacAddress, now: Optional[float] = None) -> Optional[Port]:
        entry = self.mac_table.get(mac)
        if entry is None:
            return None
        port, when = entry
        if (self.sim.now if now is None else now) - when > self.mac_age_limit:
            del self.mac_table[mac]
            return None
        return port

    def on_frame(self, frame: EthernetFrame, in_port: Port) -> None:
        self._hop(frame, in_port, self.sim.now, self.forward_delay)

    def _hop(self, frame: EthernetFrame, in_port: Port, now: float, delay: float) -> None:
        """Learn and look up as of ``now``, transmit ``delay`` later."""
        # Learn the sender's location (moves on migration are picked up
        # here: a gratuitous ARP from a new port rewrites the entry).
        self.mac_table[frame.src] = (in_port, now)
        out = None if frame.dst.is_broadcast else self.lookup(frame.dst, now)
        if out is None:
            self.frames_flooded += 1
            for port in self.ports:
                if port is not in_port:
                    self._emit(port, frame, delay)
        elif out is not in_port:
            self.frames_forwarded += 1
            self._emit(out, frame, delay)
        # out is in_port: destination is on the segment it came from; drop.

    def _emit(self, port: Port, frame: EthernetFrame, delay: float) -> None:
        if delay > 0:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._calendar, (sim.now + delay, seq, None, partial(port.transmit, frame)))
        else:
            port.transmit(frame)


class Bridge(Switch):
    """In-host software bridge (the Xen/``brctl`` bridge of Fig 5).

    Semantically a switch; the per-frame cost (``BRIDGE_FORWARD_DELAY``)
    is higher because frames cross the host CPU.
    """

    def __init__(self, sim: Simulator, name: str = "br0") -> None:
        super().__init__(sim, name=name, forward_delay=BRIDGE_FORWARD_DELAY)

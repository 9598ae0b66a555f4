"""The user-level virtual network device (tap).

A :class:`TapDevice` is an L2 port that, instead of leading to a wire,
hands every frame to the WAVNet driver (capture direction) and lets the
driver inject frames back (delivery direction). Crossing the tap costs
CPU time — the user/kernel copy that makes user-level virtual networks
slower than native — modeled as a per-frame cost plus a per-byte cost.

The real driver is a single ``read()``/``write()`` loop per direction,
so the tap is one :class:`~repro.sim.queues.Serializer` per direction:
line-rate bursts are naturally paced through the tap instead of arriving
at the access queue as one slug. The two cost knobs are what Figures
6-7's "close-to-native" comparison is sensitive to.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.l2 import Port
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.queues import Serializer

__all__ = ["TapDevice"]


class TapDevice:
    """Simulated /dev/net/tun endpoint attached to a bridge."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "tap0",
        per_frame_cost: float = 15e-6,
        per_byte_cost: float = 4e-9,
        queue_capacity: int = 1024,
    ) -> None:
        self.sim = sim
        self.name = name
        self.per_frame_cost = per_frame_cost
        self.per_byte_cost = per_byte_cost
        self.port = Port(self, name=name)
        self.capture_handler: Optional[Callable[[EthernetFrame], None]] = None
        self.frames_captured = 0
        self.frames_injected = 0
        self.up = True
        # Each station holds ``queue_capacity`` frames plus one in service.
        self._capture = Serializer(sim, queue_capacity, self._cost,
                                   self._deliver_captured)
        self._inject = Serializer(sim, queue_capacity, self._cost,
                                  self._deliver_injected)

    @property
    def drops(self) -> int:
        return self._capture.drops + self._inject.drops

    def _cost(self, frame: EthernetFrame) -> float:
        return self.per_frame_cost + self.per_byte_cost * frame.size

    # A frame already in the tap when it goes down is lost with it.
    def _deliver_captured(self, frame: EthernetFrame) -> None:
        if self.up and self.capture_handler is not None:
            self.capture_handler(frame)

    def _deliver_injected(self, frame: EthernetFrame) -> None:
        if self.up:
            self.port.transmit(frame)

    # Bridge -> tap (capture: frame leaves the host for the tunnel).
    def on_frame(self, frame: EthernetFrame, port: Port) -> None:
        if not self.up or self.capture_handler is None:
            return
        self.frames_captured += 1
        self._capture.offer(frame)

    # Tunnel -> tap (inject: frame enters the host's bridge).
    def inject(self, frame: EthernetFrame) -> None:
        if not self.up:
            return
        self.frames_injected += 1
        self._inject.offer(frame)

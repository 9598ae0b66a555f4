"""Typed option bundles for WAVNet's connect/transfer APIs.

The driver's connect path and the traffic generators (ttcp, netperf,
ApacheBench) share two frozen dataclasses, accepted everywhere via
``options=``: :class:`ConnectOptions` for how to reach a peer and
:class:`TransferOptions` for how to move bytes once connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ConnectOptions", "TransferOptions", "check_fidelity", "fluid_network",
           "resolve_options"]


def resolve_options(options, cls, api: str):
    """``options`` itself, or ``cls()`` defaults when it is None; a
    bundle of the wrong type is a :class:`TypeError` naming ``api``."""
    if options is None:
        return cls()
    if not isinstance(options, cls):
        raise TypeError(f"{api}: options= expects {cls.__name__}, "
                        f"got {type(options).__name__}")
    return options


def check_fidelity(fidelity: str) -> None:
    """The one fidelity check: ``"packet"`` or ``"fluid"``."""
    if fidelity not in ("packet", "fluid"):
        raise ValueError(f"unknown fidelity {fidelity!r}")


def fluid_network(sim):
    """The FluidNetwork a ``fidelity="fluid"`` run rides."""
    fluid = getattr(sim, "fluid", None)
    if fluid is None:
        raise RuntimeError("fidelity='fluid' requires a FluidNetwork "
                           "attached to this simulator")
    return fluid


@dataclass(frozen=True)
class ConnectOptions:
    """How to reach a peer.

    * ``allow_relay`` — fall back to rendezvous relaying when punching
      fails (the extension beyond the paper).
    * ``timeout`` — per-connect hole-punch deadline (None = driver's
      ``punch_timeout``).
    """

    allow_relay: bool = True
    timeout: Optional[float] = None


@dataclass(frozen=True)
class TransferOptions:
    """How to move bulk bytes once connected.

    * ``fidelity`` — ``"packet"`` simulates every frame; ``"fluid"``
      rides the flow-level plane.
    * ``cc`` — named congestion-control algorithm (None = stack default).
    * ``cc_trace`` — optional CcTrace sampling cwnd/rate while the
      transfer runs (netperf only).
    """

    fidelity: str = "packet"
    cc: Optional[str] = None
    cc_trace: Optional[object] = None

    def __post_init__(self) -> None:
        check_fidelity(self.fidelity)

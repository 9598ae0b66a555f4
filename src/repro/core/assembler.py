"""Packet Assembler: WAVNet encapsulation formats.

The PA "categorizes communication packets and encapsulates them with
proper identifiers" (§II.A). Wire formats (sizes are what count in the
simulation):

* ``WavData``   — 4-byte WAVNet header + the tunneled Ethernet frame.
* ``WavPulse``  — the 2-byte CONNECT_PULSE keepalive (§II.B).
* ``WavPunch`` / ``WavPunchAck`` — hole-punching probes.

Like every wire format (:class:`repro.net.packet.WireFormat`) these are
value objects, immutable by convention, whose ``size`` is fixed at
construction. Everything travels as the payload of a UDP datagram between
host public endpoints, so the per-packet overhead of the virtual layer is
``4 (WAVNet) + 8 (UDP) + 20 (IP) + 18 (outer Ethernet)`` bytes — the
"redundant packet headers" the paper sets out to minimize.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import EthernetFrame, Payload, WireFormat

__all__ = [
    "DATA_HEADER",
    "PULSE_SIZE",
    "PacketAssembler",
    "WavData",
    "WavPathChallenge",
    "WavPathResponse",
    "WavPulse",
    "WavPunch",
    "WavPunchAck",
    "WavRelay",
]

DATA_HEADER = 4
PULSE_SIZE = 2
PUNCH_SIZE = 20
PATH_FRAME_SIZE = 24


class WavData(WireFormat):
    """A tunneled layer-2 frame."""

    _fields = ("frame",)
    __slots__ = _fields + ("size",)

    def __init__(self, frame: EthernetFrame) -> None:
        self.frame = frame
        self.size = DATA_HEADER + frame.size


class WavPulse(WireFormat):
    """CONNECT_PULSE: 2-byte keepalive refreshing NAT bindings."""

    __slots__ = ()
    size = PULSE_SIZE


class _WavProbe(WireFormat):
    __slots__ = _fields = ("sender", "nonce")
    size = PUNCH_SIZE

    def __init__(self, sender: str, nonce: int = 0) -> None:
        self.sender = sender
        self.nonce = nonce


class WavPunch(_WavProbe):
    """Hole-punching probe carrying the sender's WAVNet identity."""

    __slots__ = ()


class WavPunchAck(_WavProbe):
    __slots__ = ()


class WavPathChallenge(WireFormat):
    """QUIC-style PATH_CHALLENGE: migrate an established connection to a
    new path without re-punching.

    ``cid`` is the stable connection ID (survives address changes);
    ``token`` must be echoed by the peer; ``new_ip``/``new_port`` is the
    sender's freshly discovered public endpoint, which the peer should
    adopt as the connection's remote address once the token validates.
    """

    __slots__ = _fields = ("sender", "cid", "token", "new_ip", "new_port")
    size = PATH_FRAME_SIZE

    def __init__(self, sender: str, cid: int, token: int, new_ip: object,
                 new_port: int) -> None:
        self.sender = sender
        self.cid = cid
        self.token = token
        self.new_ip = new_ip  # IPv4Address
        self.new_port = new_port


class WavPathResponse(WireFormat):
    """PATH_RESPONSE: echoes the challenge token, proving the new path
    carries traffic in both directions."""

    __slots__ = _fields = ("sender", "cid", "token")
    size = PATH_FRAME_SIZE

    def __init__(self, sender: str, cid: int, token: int) -> None:
        self.sender = sender
        self.cid = cid
        self.token = token


class WavRelay(WireFormat):
    """Extension (paper future work): rendezvous-relayed tunnel payload
    for peers whose NATs defeat hole punching (symmetric<->symmetric).

    Carries any WAVNet payload plus sender/target names so the
    rendezvous server can forward it to the target's registered
    endpoint. 16 bytes of relay header on top of the inner payload.
    """

    _fields = ("sender", "target", "inner")
    __slots__ = _fields + ("size",)

    def __init__(self, sender: str, target: str, inner: object) -> None:
        self.sender = sender
        self.target = target
        self.inner = inner  # WavData | WavPulse
        self.size = 16 + inner.size


class PacketAssembler:
    """Encapsulation/decapsulation with byte and packet accounting."""

    def __init__(self) -> None:
        self.frames_encapsulated = 0
        self.frames_decapsulated = 0
        self.bytes_tunneled = 0
        self.pulses_sent = 0

    def encapsulate(self, frame: EthernetFrame) -> Payload:
        self.frames_encapsulated += 1
        body = WavData(frame)
        self.bytes_tunneled += body.size
        return Payload(body.size, data=body, kind="wav")

    def decapsulate(self, payload: Payload) -> Optional[EthernetFrame]:
        body = payload.data
        if not isinstance(body, WavData):
            return None
        self.frames_decapsulated += 1
        return body.frame

    def pulse(self) -> Payload:
        self.pulses_sent += 1
        body = WavPulse()
        return Payload(body.size, data=body, kind="wav")

    @staticmethod
    def punch(sender: str, nonce: int = 0, ack: bool = False) -> Payload:
        body = WavPunchAck(sender, nonce) if ack else WavPunch(sender, nonce)
        return Payload(body.size, data=body, kind="wav")

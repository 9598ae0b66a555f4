"""The driver's datagram paths: its socket's demux and the tunnel's ends."""

from __future__ import annotations

from typing import Optional

from repro.core.assembler import (WavData, WavPathChallenge, WavPathResponse,
                                  WavPulse, WavPunch, WavPunchAck, WavRelay)
from repro.net.addresses import IPv4Address
from repro.net.packet import EthernetFrame, Payload
from repro.overlay.rendezvous import RENDEZVOUS_PORT
from repro.stun.messages import StunResponse


class Demux:
    def _on_captured_frame(self, frame: EthernetFrame) -> None:
        """Frame left the bridge through the tap: tunnel it."""
        targets = self.switch.select(frame, self.connections.values())
        for conn in targets:
            conn.send(self.assembler.encapsulate(frame))
        if not targets:
            # No usable tunnel toward this destination — a frame lost
            # during an outage (or before the first connect).
            self._m_dropped_outage.add()

    def _send_raw(self, endpoint: tuple[IPv4Address, int], payload: Payload) -> None:
        self.sock.sendto(endpoint[0], endpoint[1], payload)

    def _send_relayed(self, peer_name: str, payload: Payload,
                      via: Optional[tuple[IPv4Address, int]] = None) -> None:
        """Relay through a rendezvous server — ours by default, or
        ``via`` (e.g. the *peer's* rendezvous, which is the one that
        knows the peer's reach endpoint in multi-server deployments)."""
        self._m_relay_tx.add()
        wrapped = WavRelay(self.name, peer_name, payload.data)
        dst = via or (self.rendezvous_ip, RENDEZVOUS_PORT)
        self.sock.sendto(dst[0], dst[1],
                         Payload(wrapped.size, data=wrapped, kind="wav"))

    def _on_datagram(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        """Demultiplex the one socket: tunnel frames, keepalives, punch
        and path-validation probes, STUN replies, and RPC."""
        src = (src_ip, src_port)
        body = payload.data
        if isinstance(body, WavData):
            conn = self._by_endpoint.get(src)
            if conn is None:
                return  # tunnel data from an unknown endpoint
            conn.on_data(payload.size)
            frame = self.assembler.decapsulate(payload)
            self.switch.learn(frame.src, conn)
            self.tap.inject(frame)
        elif isinstance(body, WavPulse):
            conn = self._by_endpoint.get(src)
            if conn is not None:
                conn.on_pulse()
        elif isinstance(body, WavPunch):
            conn = self._ensure_connection(body.sender, None)
            conn.on_punch(src, body.nonce)
        elif isinstance(body, WavPunchAck):
            conn = self.connections.get(body.sender)
            if conn is not None:
                conn.on_punch_ack(src)
        elif isinstance(body, (WavPathChallenge, WavPathResponse)):
            self._on_path_frame(body, src)
        elif isinstance(body, WavRelay):
            self._on_relayed(body, src)
        elif isinstance(body, StunResponse):
            if self._stun_client is not None:
                self._stun_client.on_datagram(payload, src_ip, src_port)
        else:
            self.rpc.handle_datagram(payload, src_ip, src_port)

    def _on_relayed(self, body: WavRelay, src) -> None:
        self._m_relay_rx.add()
        inner = body.inner
        # Path-validation frames ride the relay for guaranteed delivery
        # during migration; they must not flip the connection into
        # relayed mode.
        if isinstance(inner, (WavPathChallenge, WavPathResponse)):
            self._on_path_frame(inner, src)
            return
        conn = self._ensure_connection(body.sender, None)
        if not conn.usable:
            conn.establish_relayed()
        if isinstance(inner, WavData):
            conn.on_data(body.size)
            self.switch.learn(inner.frame.src, conn)
            self.tap.inject(inner.frame)
        elif isinstance(inner, WavPulse):
            conn.on_pulse()

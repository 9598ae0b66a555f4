"""Direct host-to-host connection lifecycle (§II.B).

A :class:`WavConnection` goes through::

    PUNCHING --(probe answered)--> ESTABLISHED --(silence)--> DEAD

* **Punching** — both sides, told about each other by their rendezvous
  servers, blast ``WavPunch`` probes at the peer's candidate endpoints
  (public NAT 2-tuple first, private address for same-LAN peers). The
  first probe/ack that arrives fixes the working remote endpoint.
* **Keepalive** — an established connection exchanges the 2-byte
  CONNECT_PULSE every ``pulse_interval`` (paper: 5 s) so NATs "re-count
  the timeout of the existing connections".
* **Liveness** — silence for ``LIVENESS_FACTOR`` pulse intervals marks
  the connection DEAD; the driver tears it down and the WAV-Switch
  forgets its MACs.
"""

from __future__ import annotations

import enum
import zlib
from typing import Optional

from repro.core.assembler import WavPulse
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.packet import Payload
from repro.overlay.rendezvous import RENDEZVOUS_PORT
from repro.overlay.resources import ConnectionInfo
from repro.sim.engine import Event, Interrupt, Timer

__all__ = ["ConnectionState", "WavConnection", "connection_cid"]

PUNCH_INTERVAL = 0.2  # seconds between probe rounds while punching
LIVENESS_FACTOR = 4.0  # pulse intervals of silence before DEAD
MIGRATE_THRESHOLD = 1.5  # pulse intervals of silence before path validation
PUNCH_FAN = 8  # predicted ports probed past a symmetric NAT's last mapping


def connection_cid(a: str, b: str) -> int:
    """Stable connection ID for the (a, b) tunnel.

    Both ends derive the same 32-bit ID from the unordered name pair, so
    a path-validation frame identifies its connection no matter which
    address it arrives from — the QUIC property that makes migration
    work after a NAT rebind.
    """
    lo, hi = sorted((a, b))
    return zlib.crc32(f"{lo}|{hi}".encode()) & 0xFFFFFFFF


class ConnectionState(enum.Enum):
    PUNCHING = "punching"
    ESTABLISHED = "established"
    DEAD = "dead"


class WavConnection:
    """One direct tunnel between this host and a peer."""

    def __init__(
        self,
        driver,
        peer_name: str,
        peer_conn: Optional[ConnectionInfo] = None,
        punch_timeout: float = 10.0,
    ) -> None:
        """Pulse interval, port prediction, punch fan and path migration
        are the driver's settings and are read from it."""
        self.driver = driver
        self.sim = driver.sim
        self.peer_name = peer_name
        self.peer_conn = peer_conn
        self.punch_timeout = punch_timeout
        self.cid = connection_cid(driver.name, peer_name)
        self.migrations = 0
        self._path_token: Optional[int] = None

        self.state = ConnectionState.PUNCHING
        self.relayed = False  # rendezvous-relay fallback (symmetric NATs)
        self.remote: Optional[tuple[IPv4Address, int]] = None
        self.established_event: Event = Event(self.sim)
        self.created_at = self.sim.now
        self.established_at: Optional[float] = None
        self.last_heard = self.sim.now
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.pulses_received = 0
        self._punch_proc = None
        self._pulse_timer: Optional[Timer] = None
        self._pulse_cb = self._pulse_fire  # bind once, not per pulse
        self._punch_span = None

    # -- properties -------------------------------------------------------
    @property
    def usable(self) -> bool:
        return self.state is ConnectionState.ESTABLISHED

    def wait_established(self) -> Event:
        return self.established_event

    # -- candidate endpoints --------------------------------------------------
    def candidates(self) -> list[tuple[IPv4Address, int]]:
        """Endpoints worth probing, public first, private for LAN peers.
        While relayed, ``remote`` is the rendezvous endpoint — not a
        punch target — so upgrade punching probes only the peer's own
        candidates.

        Against a symmetric peer whose allocator is predictable
        (``alloc_stride > 0``), a *predicted window* of ports is added:
        the peer's NAT sources its k-th fresh punch allocation from
        ``observed + (off + k) * stride``, where ``off`` counts the
        non-predicted candidates the peer burns allocations on first.
        Both sides use the same candidate-ordering rules, so the window
        each aims at is exactly where the other's probes come out:

        * peer symmetric, we are cone — the peer probes our public
          endpoint first (its allocation #1), so ``off = 0`` and k=1
          lands on it;
        * both symmetric — advertised public endpoints are futile (those
          mappings only admit the STUN server), so each side probes only
          the peer's private address (allocation #1) before its window
          (allocations #2..), giving ``off = 1`` on both sides.
        """
        out: list[tuple[IPv4Address, int]] = []
        if self.remote is not None and not self.relayed:
            out.append(self.remote)
        pc = self.peer_conn
        if pc is None:
            return out
        pub = (pc.public_ip, pc.public_port)
        priv = (pc.private_ip, pc.private_port)
        stride = pc.alloc_stride if self.driver.predict_ports else 0
        if pc.nat_type is NatType.SYMMETRIC and stride > 0:
            self_sym = self.driver.nat_type is NatType.SYMMETRIC
            if self_sym:
                off = 1
                order = (priv,)
            else:
                off = 0
                order = (pub, priv)
            for ep in order:
                if ep not in out:
                    out.append(ep)
            base = pc.observed_port or pc.public_port
            for k in range(1, PUNCH_FAN + 1):
                port = base + (off + k) * stride
                if port > 65535:
                    break
                ep = (pc.public_ip, port)
                if ep not in out:
                    out.append(ep)
            return out
        for ep in (pub, priv):
            if ep not in out:
                out.append(ep)
        return out

    # -- punching ----------------------------------------------------------------
    def start_punching(self) -> None:
        if self._punch_proc is None or not self._punch_proc.is_alive:
            if self._punch_span is None:
                self._punch_span = self.sim.trace.begin(
                    "punch", host=self.driver.name, peer=self.peer_name)
            self._punch_proc = self.sim.process(self._punch_loop(),
                                                name=f"punch:{self.driver.name}->{self.peer_name}")

    def _punch_loop(self):
        # Also runs for ESTABLISHED+relayed connections: periodic
        # relay->direct upgrade attempts re-punch without tearing the
        # relay path down (an upgrade timeout leaves the relay in place).
        deadline = self.sim.now + self.punch_timeout
        nonce = 0
        try:
            while (self.sim.now < deadline
                   and (self.state is ConnectionState.PUNCHING
                        or (self.state is ConnectionState.ESTABLISHED and self.relayed))):
                for endpoint in self.candidates():
                    self.driver._m_punch_tx.add()
                    self.driver._send_raw(endpoint,
                                          self.driver.assembler.punch(self.driver.name, nonce))
                nonce += 1
                yield self.sim.timeout(PUNCH_INTERVAL)
        except Interrupt:
            return
        if self.state is ConnectionState.PUNCHING:
            self._fail()
        elif self._punch_span is not None and self.relayed:
            self._punch_span.end(outcome="still_relayed")
            self._punch_span = None

    def _fail(self) -> None:
        self.state = ConnectionState.DEAD
        self.driver._m_punch_failed.add()
        if self._punch_span is not None:
            self._punch_span.end(outcome="timeout")
            self._punch_span = None
        if not self.established_event.triggered:
            self.established_event.fail(TimeoutError(
                f"hole punching to {self.peer_name} failed"))
            self.established_event.defuse()
        self.driver._connection_dead(self, reason="punch_timeout")

    def _establish(self, remote: tuple[IPv4Address, int]) -> None:
        self.last_heard = self.sim.now
        if self.state is ConnectionState.ESTABLISHED:
            if (self.relayed and remote != (self.driver.rendezvous_ip,
                                            RENDEZVOUS_PORT)):
                self._upgrade(remote)
            else:
                self.remote = remote
            return
        self.remote = remote
        self.state = ConnectionState.ESTABLISHED
        self.established_at = self.sim.now
        driver = self.driver
        driver._m_established.add()
        driver._m_punch_seconds.observe(self.sim.now - self.created_at)
        if self.relayed:
            driver._m_relayed.add()
        if self._punch_span is not None:
            self._punch_span.end(outcome="established", relayed=self.relayed)
            self._punch_span = None
        self.sim.trace.event("established", host=driver.name,
                             peer=self.peer_name, relayed=self.relayed,
                             remote=f"{remote[0]}:{remote[1]}")
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        if self._punch_proc is not None and self._punch_proc.is_alive:
            self._punch_proc.interrupt("established")
        self._pulse_timer = self.sim.timer(driver.pulse_interval, self._pulse_cb)
        driver._connection_established(self)

    def _upgrade(self, remote: tuple[IPv4Address, int]) -> None:
        """Relay->direct upgrade: a punch made it through after the
        relay fallback — move the data path onto the direct endpoint."""
        self.relayed = False
        self.remote = remote
        driver = self.driver
        driver._m_upgraded.add()
        if self._punch_span is not None:
            self._punch_span.end(outcome="upgraded")
            self._punch_span = None
        if self._punch_proc is not None and self._punch_proc.is_alive:
            self._punch_proc.interrupt("upgraded")
        driver._connection_established(self)
        self.sim.trace.event("upgraded", host=driver.name, peer=self.peer_name,
                             remote=f"{remote[0]}:{remote[1]}")

    # -- inbound ---------------------------------------------------------------
    def on_punch(self, src: tuple[IPv4Address, int], nonce: int) -> None:
        self.driver._m_punch_rx.add()
        self.driver._send_raw(src, self.driver.assembler.punch(
            self.driver.name, nonce, ack=True))
        self._establish(src)

    def on_punch_ack(self, src: tuple[IPv4Address, int]) -> None:
        self.driver._m_punch_ack_rx.add()
        self._establish(src)

    def establish_relayed(self) -> None:
        """Fall back to relaying through the rendezvous server (extension
        for NAT pairs that defeat hole punching)."""
        self.relayed = True
        self._establish((self.driver.rendezvous_ip, RENDEZVOUS_PORT))

    def on_pulse(self) -> None:
        self.pulses_received += 1
        self.driver._m_pulse_rx.add()
        self.last_heard = self.sim.now

    def on_data(self, size: int) -> None:
        self.frames_received += 1
        self.bytes_received += size
        driver = self.driver
        driver._m_frames_rx.add()
        driver._m_bytes_rx.add(size)
        self.last_heard = self.sim.now

    # -- outbound -------------------------------------------------------------
    def send(self, payload: Payload) -> None:
        if not self.usable:
            if not isinstance(payload.data, WavPulse):
                self.driver._m_dropped_outage.add()
            return
        self.frames_sent += 1
        self.bytes_sent += payload.size
        driver = self.driver
        if isinstance(payload.data, WavPulse):
            driver._m_pulse_tx.add()
        else:
            driver._m_frames_tx.add()
            driver._m_bytes_tx.add(payload.size)
        if self.relayed:
            driver._send_relayed(self.peer_name, payload)
        else:
            driver._send_raw(self.remote, payload)

    # -- keepalive / liveness ------------------------------------------------
    def _pulse_fire(self) -> None:
        """One keepalive tick: a cancelable timer chain instead of a
        long-lived process — no generator frame, no Timeout/Event churn."""
        self._pulse_timer = None
        if not self.usable:
            return
        driver = self.driver
        pulse_interval = driver.pulse_interval
        silent_for = self.sim.now - self.last_heard
        if silent_for > LIVENESS_FACTOR * pulse_interval:
            self.state = ConnectionState.DEAD
            driver._connection_dead(self, reason="liveness")
            return
        if (driver.migration and not self.relayed
                and silent_for > MIGRATE_THRESHOLD * pulse_interval):
            # Suspicious silence on a direct path: the NAT may have
            # rebound under us. Validate/repair the path by migration
            # well before the liveness deadline declares the peer dead.
            driver._start_migration(self)
        self.send(driver.assembler.pulse())
        self._pulse_timer = self.sim.timer(pulse_interval, self._pulse_cb)

    def close(self) -> None:
        self.state = ConnectionState.DEAD
        if self._punch_span is not None:
            self._punch_span.end(outcome="closed")
            self._punch_span = None
        if self._pulse_timer is not None:
            self._pulse_timer.cancel()
            self._pulse_timer = None
        proc = self._punch_proc
        if proc is not None and proc.is_alive:
            proc.interrupt("closed")
            # The interrupt may land before the process's first step
            # (generator never entered its try block); nobody waits on
            # this helper, so a resulting failure must not escape.
            proc.defuse()
        self.driver._connection_dead(self, reason="closed")

"""Request/response RPC over simulated UDP.

Both the CAN inter-node protocol and the host<->rendezvous protocol need
"send a message, wait for the reply, retry on timeout" semantics. This
module provides that once, so protocol code stays declarative:

* :meth:`RpcEndpoint.register` — install a handler for a message kind;
  the handler returns the reply body (or a generator process that yields
  and then returns it).
* :meth:`RpcEndpoint.call` — process body: send, await matching reply.
* :meth:`RpcEndpoint.notify` — fire-and-forget.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.addresses import IPv4Address
from repro.net.packet import Payload
from repro.net.udp import UdpSocket

__all__ = ["RpcEndpoint", "RpcError", "RpcTimeout"]

ENVELOPE_OVERHEAD = 24  # rpc id + kind tag + framing bytes on the wire


class RpcError(Exception):
    """Remote handler signalled an error."""


class RpcTimeout(Exception):
    """No reply within the deadline (after retries)."""


@dataclass(frozen=True)
class _Envelope:
    rpc_id: int
    kind: str
    body: Any
    is_reply: bool
    is_error: bool = False


def _body_size(body: Any) -> int:
    size = getattr(body, "size", None)
    if size is not None:
        return int(size)
    return 64  # default estimate for small control bodies


class RpcEndpoint:
    """RPC service bound to one UDP socket."""

    def __init__(self, stack, sock: UdpSocket, name: str = "rpc") -> None:
        """The endpoint sends on ``sock`` but does not read it: the
        socket's owner routes arriving datagrams to
        :meth:`handle_datagram` — ``sock.handler = rpc.handle_datagram``
        when RPC is all the socket carries, its own demultiplexer when
        not (the WAVNet driver shares one socket between RPC control
        traffic and the tunnel data plane, so they ride the same NAT
        mapping)."""
        self.stack = stack
        self.sock = sock
        self.name = name
        self.handlers: dict[str, Callable] = {}
        self._next_id = 1
        self._waiting: dict[int, Any] = {}  # rpc_id -> Event
        self.calls_made = 0
        self.requests_served = 0
        metrics = stack.sim.metrics.scope(f"{name}.rpc")
        self._m_calls = metrics.counter("calls")
        self._m_retries = metrics.counter("retries")
        self._m_timeouts = metrics.counter("timeouts")
        self._m_served = metrics.counter("served")

    # -- lifecycle --------------------------------------------------------
    def shutdown(self) -> None:
        """Close the socket (component crash/stop). In-flight calls time
        out naturally; handlers stay registered so :meth:`rebind` can
        bring the endpoint back."""
        self.sock.close()

    def rebind(self, sock: UdpSocket) -> None:
        """Attach a fresh socket after :meth:`shutdown` (component
        restore)."""
        self.sock = sock

    # -- server side ------------------------------------------------------
    def register(self, kind: str, handler: Callable) -> None:
        """Handler signature: ``handler(body, src_ip, src_port) -> reply``.
        A generator handler is run as a process; its return value is the
        reply. Returning None sends an empty ack."""
        if kind in self.handlers:
            raise RuntimeError(f"duplicate RPC handler for {kind!r}")
        self.handlers[kind] = handler

    def handle_datagram(self, payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        """Process one datagram (a socket handler); what is not an RPC
        envelope is dropped."""
        env = payload.data
        if not isinstance(env, _Envelope):
            return
        if env.is_reply:
            waiter = self._waiting.pop(env.rpc_id, None)
            if waiter is not None and not waiter.triggered:
                if env.is_error:
                    waiter.fail(RpcError(env.body))
                    waiter.defuse()
                else:
                    waiter.succeed(env.body)
            return
        handler = self.handlers.get(env.kind)
        if handler is None:
            self._reply(env, src_ip, src_port, f"no handler for {env.kind!r}", error=True)
            return
        self.requests_served += 1
        self._m_served.add()
        try:
            result = handler(env.body, src_ip, src_port)
        except Exception as exc:  # handler bug or modeled failure
            self._reply(env, src_ip, src_port, repr(exc), error=True)
            return
        if inspect.isgenerator(result):
            self.stack.sim.process(self._async_reply(result, env, src_ip, src_port),
                                   name=f"rpc-handler:{env.kind}")
        else:
            self._reply(env, src_ip, src_port, result)

    def _async_reply(self, gen, env: _Envelope, src_ip: IPv4Address, src_port: int):
        try:
            result = yield self.stack.sim.process(gen)
        except Exception as exc:  # deliberate broad catch: errors cross the wire
            self._reply(env, src_ip, src_port, repr(exc), error=True)
            return
        self._reply(env, src_ip, src_port, result)

    def _reply(self, env: _Envelope, dst_ip: IPv4Address, dst_port: int,
               body: Any, error: bool = False) -> None:
        if self.sock.closed:
            return  # endpoint shut down while the handler ran
        out = _Envelope(env.rpc_id, env.kind, body, is_reply=True, is_error=error)
        self.sock.sendto(dst_ip, dst_port,
                         Payload(ENVELOPE_OVERHEAD + _body_size(body), data=out, kind="rpc"))

    # -- client side ----------------------------------------------------------
    def notify(self, dst_ip: IPv4Address, dst_port: int, kind: str, body: Any) -> None:
        if self.sock.closed:
            return  # component crashed under us: fire-and-forget goes nowhere
        env = _Envelope(self._alloc_id(), kind, body, is_reply=False)
        self.sock.sendto(dst_ip, dst_port,
                         Payload(ENVELOPE_OVERHEAD + _body_size(body), data=env, kind="rpc"))

    def _alloc_id(self) -> int:
        rpc_id = self._next_id
        self._next_id += 1
        return rpc_id

    def call(self, dst_ip: IPv4Address, dst_port: int, kind: str, body: Any,
             timeout: float = 2.0, retries: int = 3):
        """Process body: returns the reply body; raises RpcTimeout/RpcError."""
        sim = self.stack.sim
        last_exc: Optional[Exception] = None
        for attempt in range(retries):
            if self.sock.closed:
                # Our component crashed mid-call; surface as a timeout so
                # callers' existing retry/abort paths handle it.
                raise RpcTimeout(f"{kind}: local endpoint closed")
            rpc_id = self._alloc_id()
            env = _Envelope(rpc_id, kind, body, is_reply=False)
            waiter = sim.event()
            self._waiting[rpc_id] = waiter
            self.calls_made += 1
            if attempt == 0:
                self._m_calls.add()
            else:
                self._m_retries.add()
            self.sock.sendto(dst_ip, dst_port,
                             Payload(ENVELOPE_OVERHEAD + _body_size(body), data=env, kind="rpc"))
            yield sim.any_of([waiter, sim.timeout(timeout)])
            if waiter.processed:
                return waiter.value  # may raise RpcError via the fail path
            if waiter.triggered:
                # failed with RpcError before processing: surface it
                return waiter.value
            self._waiting.pop(rpc_id, None)
            last_exc = RpcTimeout(f"{kind} to {dst_ip}:{dst_port}")
        self._m_timeouts.add()
        raise last_exc

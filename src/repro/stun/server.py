"""STUN server pair: one logical server on two public addresses.

RFC 3489 classification needs responses from four distinct endpoints
(two IPs x two ports). We model this as two coordinated public hosts —
the *primary* and the *alternate* — each binding the standard and the
alternate STUN ports. A CHANGE-REQUEST is honoured by relaying the reply
duty to the other host / other socket.
"""

from __future__ import annotations

from functools import partial

from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.l2 import Link
from repro.net.packet import Payload
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.scenarios.builder import named_mac_factory
from repro.sim.engine import Simulator
from repro.stun.messages import STUN_ALT_PORT, STUN_PORT, StunRequest, StunResponse

__all__ = ["PRIMARY_IP", "StunServerPair"]

PRIMARY_IP = IPv4Address("9.9.9.1")  # the address every WAVNet driver probes
ALTERNATE_IP = IPv4Address("9.9.9.2")
PUBLIC_NETWORK = IPv4Network("9.9.9.0/24")
ATTACH_LATENCY = 0.001  # one-way, each server host to the cloud


class StunServerPair:
    """Two public hosts answering STUN binding requests."""

    def __init__(self, sim: Simulator, cloud: WanCloud) -> None:
        self.sim = sim
        self.hosts: dict[IPv4Address, Host] = {}
        self.requests_served = 0
        for tag, ip in (("primary", PRIMARY_IP), ("alt", ALTERNATE_IP)):
            name = f"stun.{tag}"
            host = Host(sim, name, named_mac_factory(name))
            iface = host.add_nic().configure(ip, PUBLIC_NETWORK)
            host.stack.connected_route_for(iface)
            host.stack.add_route("0.0.0.0/0", iface)
            Link(sim, iface.port, cloud.attach(name),
                 latency=ATTACH_LATENCY, bandwidth_bps=1e9, name=f"{name}.access")
            self.hosts[ip] = host
            for port in (STUN_PORT, STUN_ALT_PORT):
                host.udp.bind(port).handler = partial(self._on_datagram, ip, port)

    def _other_ip(self, ip: IPv4Address) -> IPv4Address:
        return ALTERNATE_IP if ip == PRIMARY_IP else PRIMARY_IP

    def _other_port(self, port: int) -> int:
        return STUN_ALT_PORT if port == STUN_PORT else STUN_PORT

    def _on_datagram(self, ip: IPv4Address, port: int,
                     payload: Payload, src_ip: IPv4Address, src_port: int) -> None:
        """A datagram arrived on the socket bound to ``ip``:``port``."""
        request = payload.data
        if not isinstance(request, StunRequest):
            return
        self.requests_served += 1
        reply_ip = self._other_ip(ip) if request.change_ip else ip
        reply_port = self._other_port(port) if request.change_port else port
        response = StunResponse(
            txid=request.txid,
            mapped_ip=src_ip,
            mapped_port=src_port,
            source_ip=reply_ip,
            source_port=reply_port,
            changed_ip=self._other_ip(ip),
            changed_port=self._other_port(port),
        )
        reply_sock = self.hosts[reply_ip].udp.sockets[reply_port]
        reply_sock.sendto(src_ip, src_port, Payload(response.size, data=response, kind="stun"))

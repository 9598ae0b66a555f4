"""The virtual machine: a guest network stack plus a paged memory image.

A :class:`VirtualMachine` owns a full :class:`~repro.net.stack.Host`
(so unmodified guest workloads — HTTP servers, MPI ranks, netperf —
run *inside* the VM), a vif port the hypervisor patches into a bridge,
and the memory/dirty-model state the migration algorithm works on.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.stack import Host, Interface
from repro.sim.engine import Simulator

__all__ = ["PAGE_SIZE", "VirtualMachine"]

PAGE_SIZE = 4096


class VirtualMachine:
    """A guest VM (the paper's CentOS guests, 128-512 MB)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        memory_mb: int,
        mac_mint,
        dirty_model=None,
        cpu_factor: float = 1.0,
        **stack_kwargs,
    ) -> None:
        from repro.vm.dirty import IdleDirtyModel

        self.sim = sim
        self.name = name
        self.memory_mb = memory_mb
        self.total_pages = memory_mb * 1024 * 1024 // PAGE_SIZE
        self.dirty_model = dirty_model or IdleDirtyModel()
        self.guest = Host(sim, f"vm:{name}", mac_mint, cpu_factor=cpu_factor,
                          **stack_kwargs)
        self.vif: Interface = self.guest.add_nic("eth0")
        self.paused = False
        self.migrations = 0
        self.current_host: Optional[object] = None  # Hypervisor

    # -- guest configuration -----------------------------------------------
    def configure_network(self, ip: IPv4Address | str, network: IPv4Network | str,
                          gateway: Optional[IPv4Address | str] = None) -> None:
        self.vif.configure(ip, network)
        self.guest.stack.connected_route_for(self.vif)
        if gateway is not None:
            self.guest.stack.add_route("0.0.0.0/0", self.vif, gateway=gateway)

    @property
    def ip(self) -> IPv4Address:
        if self.vif.ip is None:
            raise RuntimeError(f"{self.name}: guest network unconfigured")
        return self.vif.ip

    @property
    def mac(self) -> MacAddress:
        return self.vif.mac

    # -- pause/resume (stop-and-copy window) ------------------------------------
    def pause(self) -> None:
        """Stop-and-copy begins: the guest stops executing; its vif drops
        all traffic (in-flight TCP recovers by retransmission, which is
        what netperf/AB observe as the downtime dip)."""
        self.paused = True
        self.vif.port.up = False

    def resume(self) -> None:
        self.paused = False
        self.vif.port.up = True

    def announce(self) -> None:
        """Gratuitous ARP after resume ("the VMM will inject an
        unsolicited ARP broadcast ... on behalf of the virtual machine")."""
        self.sim.trace.event("garp", vm=self.name, mac=str(self.vif.mac),
                             ip=str(self.vif.ip))
        self.guest.stack.gratuitous_arp(self.vif)

    def memory_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

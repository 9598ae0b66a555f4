"""Per-host VMM: vif plumbing and live-migration orchestration.

A :class:`Hypervisor` sits on a physical host and plugs guest vifs into
an L2 attachment point — either a plain LAN bridge/switch or a WAVNet
driver's bridge (the paper's Fig 5 deployment). Migration runs the
pre-copy engine over a TCP connection between the physical hosts; for
WAN migration under WAVNet that connection naturally rides the tunnel.
"""

from __future__ import annotations

from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.tcp import drain_bytes
from repro.sim.engine import Simulator
from repro.vm.machine import VirtualMachine
from repro.vm.migration import (
    CPU_STATE_BYTES,
    RESUME_COST,
    MigrationReport,
    _round_bytes,
    run_precopy,
)

__all__ = ["Hypervisor", "MIGRATION_PORT", "bridge_attach"]

MIGRATION_PORT = 8002


def bridge_attach(bridge):
    """Attachment callable for a plain LAN bridge/switch (non-WAVNet)."""
    from repro.net.l2 import patch

    def attach(port, label):
        patch(port, bridge.new_port(label))

    return attach


class Hypervisor:
    """Xen-like VMM on one physical host."""

    def __init__(self, host: Host, attach) -> None:
        """``attach`` is a callable ``attach(port, label)`` plugging a vif
        into the host's L2 domain — ``WavnetDriver.attach_port`` for
        WAVNet hosts, or a closure over ``Bridge.new_port`` + ``patch``
        for plain LAN hosts. Migrations arrive on ``MIGRATION_PORT``."""
        self.host = host
        self.sim: Simulator = host.sim
        self.name = f"vmm:{host.name}"
        self.attach = attach
        self.vms: dict[str, VirtualMachine] = {}
        self.migrations_in = 0
        self.migrations_out = 0
        self.metrics = self.sim.metrics.scope(f"{host.name}.vmm")
        self._listener = host.tcp.listen(MIGRATION_PORT)
        self.sim.process(self._migration_server(), name=f"migrated:{host.name}")

    # -- VM lifecycle -----------------------------------------------------
    def create_vm(self, name: str, memory_mb: int = 256, dirty_model=None,
                  cpu_factor: float = 1.0, **stack_kwargs) -> VirtualMachine:
        vm = VirtualMachine(self.sim, name, memory_mb, self.host.mac_mint,
                            dirty_model=dirty_model, cpu_factor=cpu_factor,
                            **stack_kwargs)
        self.adopt(vm)
        return vm

    def adopt(self, vm: VirtualMachine) -> None:
        """Plug an existing VM's vif into this host's bridge."""
        if vm.vif.port.connected:
            raise RuntimeError(f"{vm.name} is already attached somewhere")
        self.attach(vm.vif.port, f"vif-{vm.name}")
        self.vms[vm.name] = vm
        vm.current_host = self

    def detach(self, vm: VirtualMachine) -> None:
        """Unplug the vif (the bridge port is abandoned, as Xen does)."""
        vm.vif.port.disconnect()
        self.vms.pop(vm.name, None)

    # -- live migration (sender side) --------------------------------------------
    def migrate(self, vm: VirtualMachine, dest: "Hypervisor",
                dest_ip: IPv4Address, max_rounds: int = 30):
        """Process: live-migrate ``vm`` to ``dest`` reachable at
        ``dest_ip`` (a LAN or WAVNet-virtual address of the destination
        physical host) after at most ``max_rounds`` pre-copy rounds.
        Returns a MigrationReport."""
        if vm.name not in self.vms:
            raise RuntimeError(f"{vm.name} is not on {self.name}")
        sim = self.sim
        report = MigrationReport(vm_name=vm.name, started_at=sim.now)
        span = sim.trace.begin("migrate", vm=vm.name, src=self.name, dst=dest.name)
        sim.trace.event("migrate.start", vm=vm.name, src=self.name, dst=dest.name)
        conn = self.host.tcp.connect(dest_ip, MIGRATION_PORT)
        yield conn.wait_established()
        # Iterative pre-copy rounds while the guest keeps running.
        with sim.trace.span("migrate.precopy", vm=vm.name) as precopy:
            remaining = yield from run_precopy(vm, conn, max_rounds, report)
            precopy.annotate(rounds=report.n_rounds, converged=report.converged)
        # Stop-and-copy: pause, move the last dirty set + CPU state.
        report.downtime_start = sim.now
        downtime = sim.trace.begin("migrate.downtime", vm=vm.name, pages=remaining)
        vm.pause()
        final_bytes = _round_bytes(remaining) + CPU_STATE_BYTES
        from repro.net.tcp import stream_bytes
        yield from stream_bytes(conn, final_bytes, obj_last=("resume", vm.name))
        report.bytes_transferred += final_bytes
        conn.close()
        # Re-home the vif: source unplugs, destination adopts + resumes.
        self.detach(vm)
        self.migrations_out += 1
        self.metrics.counter("migrations.out").add()
        yield sim.timeout(RESUME_COST)
        dest.adopt(vm)
        vm.resume()
        vm.migrations += 1
        vm.announce()  # gratuitous ARP through the new attachment
        report.finished_at = sim.now
        downtime.end()
        sim.trace.event("migrate.done", vm=vm.name, src=self.name,
                        dst=dest.name, seconds=report.total_time,
                        downtime=report.downtime,
                        bytes=report.bytes_transferred)
        span.end(rounds=report.n_rounds, bytes=report.bytes_transferred,
                 downtime=report.downtime, converged=report.converged)
        return report

    # -- receiver side ----------------------------------------------------------
    def _migration_server(self):
        while True:
            conn = yield self._listener.accept()
            self.sim.process(self._receive_one(conn), name=f"migrate-rx:{self.host.name}")

    def _receive_one(self, conn):
        # Sink the page stream; the sender drives the protocol. The
        # ("resume", name) marker arrives with the last stop-and-copy byte.
        yield from drain_bytes(conn)
        self.migrations_in += 1
        self.metrics.counter("migrations.in").add()
        conn.close()

"""Virtualization substrate: VMs, dirty-page models, live migration.

Implements the parts of Xen the paper depends on (§II.C):

* :mod:`repro.vm.machine` — a guest VM: its own network stack whose vif
  plugs into the host bridge, plus a paged memory image.
* :mod:`repro.vm.dirty` — write-working-set models driving how much
  memory each pre-copy round must resend.
* :mod:`repro.vm.migration` — the iterative pre-copy algorithm (Clark et
  al., NSDI'05): full first round, dirty-page rounds, stop-and-copy,
  gratuitous ARP on resume.
* :mod:`repro.vm.hypervisor` — per-host VMM: vif plumbing, migration
  orchestration over a real (simulated) TCP connection.
"""

from repro.vm.dirty import HotColdDirtyModel, UniformDirtyModel
from repro.vm.hypervisor import Hypervisor
from repro.vm.machine import VirtualMachine
from repro.vm.migration import MigrationReport

__all__ = [
    "HotColdDirtyModel",
    "Hypervisor",
    "MigrationReport",
    "UniformDirtyModel",
    "VirtualMachine",
]

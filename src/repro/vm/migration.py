"""Iterative pre-copy live migration (Clark et al., NSDI'05 — ref [6]).

Round 0 pushes every page; each later round pushes the pages dirtied
while the previous round was in flight. Rounds stop when the dirty set
is small enough, stops shrinking, or the round budget runs out; then the
VM pauses, the final set + CPU state crosses, and the VM resumes at the
destination, announcing itself with a gratuitous ARP.

Because rounds transfer over a *real* simulated TCP connection, the
dynamics the paper observes emerge naturally: long-RTT paths slow each
round, more pages are dirtied per round, so "migration time is not
always proportional to the VM memory size" (Table V) and grows
super-linearly with RTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.tcp import TcpConnection, stream_bytes
from repro.vm.machine import PAGE_SIZE, VirtualMachine

__all__ = ["MigrationReport", "run_precopy"]

# Per-page metadata sent along with the page (page number, checksums).
PAGE_OVERHEAD = 16
CPU_STATE_BYTES = 64 * 1024
# Stop conditions of the iterative pre-copy loop besides its round budget.
STOP_PAGES = 64        # dirty set small enough for stop-and-copy
MIN_PROGRESS = 0.95    # stop if round N isn't < 95% of round N-1
RESUME_COST = 0.15     # VMM resume + device re-attach (seconds)


@dataclass
class MigrationReport:
    """What the benchmarks read out of one migration."""

    vm_name: str
    started_at: float
    rounds: list = field(default_factory=list)  # (pages, seconds) per round
    bytes_transferred: int = 0
    downtime_start: float = 0.0
    finished_at: float = 0.0
    converged: bool = True

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def downtime(self) -> float:
        return self.finished_at - self.downtime_start

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def _round_bytes(pages: int) -> int:
    return pages * (PAGE_SIZE + PAGE_OVERHEAD)


def run_precopy(
    vm: VirtualMachine,
    conn: TcpConnection,
    max_rounds: int,
    report: MigrationReport,
):
    """Process body: drive at most ``max_rounds`` pre-copy rounds over
    ``conn`` (sender side; 0 is stop-and-copy).

    The receiver side just drains bytes (see Hypervisor._migration_server).
    Returns the report with rounds/downtime filled in; the caller pauses
    and resumes the VM around the stop-and-copy phase.
    """
    sim = vm.sim
    to_send = vm.total_pages  # round 0: everything
    for round_no in range(max_rounds):
        t0 = sim.now
        yield from stream_bytes(conn, _round_bytes(to_send))
        elapsed = sim.now - t0
        report.rounds.append((to_send, elapsed))
        report.bytes_transferred += _round_bytes(to_send)
        sim.trace.event("migrate.round", vm=vm.name, round=round_no,
                        pages=to_send, seconds=elapsed)
        dirtied = vm.dirty_model.unique_dirty_pages(elapsed, vm.total_pages)
        if dirtied <= STOP_PAGES:
            to_send = dirtied
            return to_send
        if dirtied >= to_send * MIN_PROGRESS and round_no > 0:
            # Dirty rate caught up with transfer rate: further rounds
            # cannot shrink the set (Xen's writable-working-set bailout).
            report.converged = False
            return dirtied
        to_send = dirtied
    report.converged = False
    return to_send

"""Unit tests for the pre-copy engine against a stub transport — exact
round accounting without a network underneath."""

import pytest

from repro.sim import Simulator
from repro.vm.dirty import HotColdDirtyModel, IdleDirtyModel, UniformDirtyModel
from repro.vm.machine import PAGE_SIZE, VirtualMachine
from repro.vm.migration import (
    STOP_PAGES,
    MigrationReport,
    _round_bytes,
    run_precopy,
)


class StubConn:
    """Transport stub with a fixed goodput; records per-send bytes."""

    def __init__(self, sim, rate_bps):
        self.sim = sim
        self.rate = rate_bps
        self.sends = []

    def send(self, nbytes, obj=None):
        self.sends.append(nbytes)
        return self.sim.timeout(nbytes * 8 / self.rate)


def make_vm(sim, memory_mb=16, dirty_model=None):
    from repro.scenarios.builder import named_mac_factory

    return VirtualMachine(sim, "vm", memory_mb, named_mac_factory("stub"),
                          dirty_model=dirty_model or IdleDirtyModel())


def run(vm, rate_bps=100e6, max_rounds=30):
    sim = vm.sim
    conn = StubConn(sim, rate_bps)
    report = MigrationReport(vm_name=vm.name, started_at=sim.now)
    proc = sim.process(run_precopy(vm, conn, max_rounds, report))
    sim.run(until=proc)
    return report, proc.value, conn


class TestPreCopyRounds:
    def test_idle_vm_single_round(self):
        sim = Simulator()
        vm = make_vm(sim)
        report, remaining, conn = run(vm)
        assert report.n_rounds == 1
        assert remaining == 0
        assert report.rounds[0][0] == vm.total_pages

    def test_round_bytes_include_page_overhead(self):
        assert _round_bytes(10) == 10 * (PAGE_SIZE + 16)

    def test_dirty_vm_rounds_shrink(self):
        sim = Simulator()
        vm = make_vm(sim, dirty_model=UniformDirtyModel(rate_pages_per_s=600))
        report, remaining, conn = run(vm, rate_bps=100e6)
        pages = [p for p, _t in report.rounds]
        assert len(pages) >= 2
        assert all(pages[i] > pages[i + 1] for i in range(len(pages) - 1))
        assert remaining <= STOP_PAGES

    def test_hot_set_triggers_wws_bailout(self):
        """A hot set larger than STOP_PAGES that never shrinks must hit
        the MIN_PROGRESS bailout, not loop to max_rounds."""
        sim = Simulator()
        vm = make_vm(sim, memory_mb=16,
                     dirty_model=HotColdDirtyModel(hot_fraction=0.2,
                                                   hot_rate=1e6, cold_rate=0))
        report, remaining, conn = run(vm, max_rounds=30)
        assert not report.converged
        assert report.n_rounds < 30
        hot_pages = int(vm.total_pages * 0.2)
        assert remaining == pytest.approx(hot_pages, rel=0.05)

    def test_max_rounds_zero_is_stop_and_copy(self):
        sim = Simulator()
        vm = make_vm(sim, dirty_model=UniformDirtyModel(1e9))
        report, remaining, conn = run(vm, max_rounds=0)
        assert report.n_rounds == 0
        assert remaining == vm.total_pages

    def test_slower_link_means_more_dirty_per_round(self):
        sim = Simulator()
        model = UniformDirtyModel(rate_pages_per_s=400)
        vm_fast = make_vm(sim, dirty_model=model)
        _r_fast, rem_fast, _ = run(vm_fast, rate_bps=400e6)
        vm_slow = make_vm(sim, dirty_model=model)
        report_slow, rem_slow, _ = run(vm_slow, rate_bps=20e6)
        # The slow link's first round lasts longer, so round 2 is bigger.
        assert report_slow.rounds[1][0] > 0
        assert report_slow.bytes_transferred > _round_bytes(vm_slow.total_pages)

    def test_report_total_and_downtime_accounting(self):
        report = MigrationReport(vm_name="x", started_at=10.0)
        report.downtime_start = 40.0
        report.finished_at = 41.5
        assert report.total_time == pytest.approx(31.5)
        assert report.downtime == pytest.approx(1.5)

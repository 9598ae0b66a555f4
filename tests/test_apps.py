"""Tests for workload generators: ttcp, netperf, HTTP/ab, MPI."""

import pytest

from repro.apps.ab import ApacheBench
from repro.apps.httpd import HttpServer
from repro.apps.mpi import MpiJob, ep_program, ft_program, heat_distribution_program
from repro.apps.netperf import netperf_stream, netserver
from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.net.addresses import IPv4Address
from repro.scenarios.builder import host_pair, make_lan
from repro.sim import Simulator

B_IP = IPv4Address("10.0.0.2")


class TestTtcp:
    def test_rate_reflects_link(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002, bandwidth_bps=20e6,
                                tcp_mss=8192, queue_capacity=512)
        rx = sim.process(ttcp_receiver(b))
        tx = sim.process(ttcp_transfer(a, B_IP, 4_000_000))
        sim.run(until=tx)
        result = tx.value
        assert 0.5 * 20 < result.rate_mbit < 20
        assert rx.value == 4_000_000 or rx.is_alive is False

    def test_kbps_units(self):
        from repro.apps.ttcp import TtcpResult
        r = TtcpResult(total_bytes=1024 * 1000, elapsed=10.0)
        assert r.rate_kbps == pytest.approx(100.0)


class TestNetperf:
    def test_duration_and_series(self):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=0.002, bandwidth_bps=50e6,
                                tcp_mss=8192, queue_capacity=512)
        sim.process(netserver(b))
        p = sim.process(netperf_stream(a, B_IP, duration=10.0, interval=0.5))
        sim.run(until=p)
        result = p.value
        assert len(result.times) == pytest.approx(20, abs=2)
        assert 0.5 * 50 < result.throughput_mbps < 50
        # steady-state samples hover near the average
        assert max(result.rates_mbps[4:]) < 60

    def test_stream_to_nowhere_reports_zero(self):
        sim = Simulator()
        a, b, _link = host_pair(sim)
        p = sim.process(netperf_stream(a, IPv4Address("10.0.0.99"), duration=3.0))
        sim.run(until=sim.now + 60)
        # connection never establishes; process may still be waiting on
        # SYN retries - give it the timeout path
        if p.triggered:
            assert p.value.throughput_mbps == 0


class TestHttpAb:
    def build(self, latency=0.005, bandwidth=50e6):
        sim = Simulator()
        a, b, _link = host_pair(sim, latency=latency, bandwidth_bps=bandwidth)
        server = HttpServer(b)
        return sim, a, b, server

    def test_single_request_roundtrip(self):
        sim, a, b, server = self.build()
        ab = ApacheBench(a, B_IP, path="/file1k", concurrency=1)
        p = sim.process(ab.run_requests(5))
        sim.run(until=p)
        report = p.value
        assert report.requests_completed == 5
        assert report.requests_failed == 0
        assert server.requests_served == 5

    @pytest.mark.parametrize("n", [10, 30])
    def test_run_requests_issues_exactly_n_concurrently(self, n):
        """``ab -n N -c 4`` issues N requests, not N plus whatever the
        workers had in flight when the N-th completed."""
        sim, a, b, server = self.build()
        ab = ApacheBench(a, B_IP, path="/file1k", concurrency=4)
        report = sim.run_coro(ab.run_requests(n))
        assert report.requests_completed == server.requests_served == n

    def test_connect_time_tracks_rtt(self):
        sim, a, b, server = self.build(latency=0.040)
        ab = ApacheBench(a, B_IP, concurrency=1)
        p = sim.process(ab.run_requests(4))
        sim.run(until=p)
        mn, mean, mx = p.value.connect_ms()
        assert mn >= 80.0  # one RTT minimum
        assert mean < 200.0

    def test_larger_files_lower_throughput(self):
        rates = {}
        for path in ("/file1k", "/file64k"):
            sim, a, b, server = self.build()
            ab = ApacheBench(a, B_IP, path=path, concurrency=4)
            p = sim.process(ab.run_for(10.0))
            sim.run(until=p)
            rates[path] = p.value.requests_per_second
        assert rates["/file1k"] > rates["/file64k"] > 0

    def test_concurrency_scales_throughput(self):
        rates = {}
        for c in (1, 8):
            sim, a, b, server = self.build(latency=0.030)
            ab = ApacheBench(a, B_IP, concurrency=c)
            p = sim.process(ab.run_for(10.0))
            sim.run(until=p)
            rates[c] = p.value.requests_per_second
        assert rates[8] > 3 * rates[1]

    def test_missing_file_is_failure(self):
        sim, a, b, server = self.build()
        ab = ApacheBench(a, B_IP, path="/nope", concurrency=1)
        p = sim.process(ab.run_requests(2))
        sim.run(until=p)
        assert p.value.requests_failed == 2

    def test_throughput_series_buckets(self):
        sim, a, b, server = self.build()
        ab = ApacheBench(a, B_IP, concurrency=2)
        p = sim.process(ab.run_for(5.0))
        sim.run(until=p)
        t, rps = p.value.throughput_series(1.0)
        assert len(t) >= 4
        assert rps.mean() == pytest.approx(p.value.requests_per_second, rel=0.3)


class TestMpi:
    def make_cluster(self, sim, n=4, latency=0.0002, bandwidth=1e9):
        lan = make_lan(sim, n, subnet="10.5.0.0/24", link_latency=latency,
                       link_bandwidth_bps=bandwidth, tcp_mss=8192)
        ips = [h.stack.ips[0] for h in lan.hosts]
        return lan.hosts, ips

    def test_heat_completes(self):
        sim = Simulator()
        hosts, ips = self.make_cluster(sim)
        job = MpiJob(hosts, ips, heat_distribution_program(64, iterations=20))
        p = sim.process(job.run())
        sim.run(until=p)
        assert p.value > 0

    def test_heat_scales_with_grid(self):
        times = {}
        for m in (128, 256):
            sim = Simulator()
            hosts, ips = self.make_cluster(sim)
            # Modest base_flops keeps the kernel compute-bound so grid
            # size, not LAN latency, dominates.
            job = MpiJob(hosts, ips, heat_distribution_program(m, iterations=30),
                         base_flops=1e8)
            p = sim.process(job.run())
            sim.run(until=p)
            times[m] = p.value
        assert times[256] > 1.5 * times[128]

    def test_slow_link_dominates_heat(self):
        """One rank across a WAN link slows the whole job (Fig 11's
        before-migration situation)."""
        def run(wan_latency):
            sim = Simulator()
            lan = make_lan(sim, 3, subnet="10.5.0.0/24", link_latency=0.0002,
                           link_bandwidth_bps=1e9, tcp_mss=8192)
            from repro.net.l2 import Link
            from repro.net.stack import Host
            from repro.scenarios.builder import named_mac_factory
            far = Host(sim, "far", named_mac_factory("far"), tcp_mss=8192)
            iface = far.add_nic().configure("10.5.0.200", "10.5.0.0/24")
            far.stack.connected_route_for(iface)
            Link(sim, iface.port, lan.switch.new_port(), latency=wan_latency,
                 bandwidth_bps=20e6)
            hosts = lan.hosts + [far]
            ips = [h.stack.ips[0] for h in hosts]
            job = MpiJob(hosts, ips, heat_distribution_program(64, iterations=50))
            p = sim.process(job.run())
            sim.run(until=p)
            return p.value

        near = run(0.0002)
        far = run(0.037)
        assert far > 3 * near

    def test_ep_insensitive_to_latency(self):
        def run(latency):
            sim = Simulator()
            hosts, ips = self.make_cluster(sim, latency=latency)
            job = MpiJob(hosts, ips, ep_program(2**27), base_flops=2e9)
            p = sim.process(job.run())
            sim.run(until=p)
            return p.value

        near, far = run(0.0002), run(0.050)
        assert far < 1.5 * near

    def test_ft_sensitive_to_latency_and_bandwidth(self):
        def run(latency, bw):
            sim = Simulator()
            hosts, ips = self.make_cluster(sim, latency=latency, bandwidth=bw)
            job = MpiJob(hosts, ips, ft_program((64, 64, 32), iterations=3),
                         base_flops=2e9)
            p = sim.process(job.run())
            sim.run(until=p)
            return p.value

        near = run(0.0002, 1e9)
        far = run(0.050, 20e6)
        assert far > 5 * near

    def test_barrier_synchronizes(self):
        sim = Simulator()
        hosts, ips = self.make_cluster(sim)
        order = []

        def program(ctx):
            yield from ctx.compute(1e6 * (ctx.rank + 1))
            order.append(("pre", ctx.rank, ctx.sim.now))
            yield from ctx.barrier()
            order.append(("post", ctx.rank, ctx.sim.now))

        job = MpiJob(hosts, ips, program)
        p = sim.process(job.run())
        sim.run(until=p)
        post_times = [t for phase, _r, t in order if phase == "post"]
        pre_times = [t for phase, _r, t in order if phase == "pre"]
        assert max(post_times) >= max(pre_times)
        assert max(post_times) - min(post_times) < 0.05

    def test_validation(self):
        sim = Simulator()
        hosts, ips = self.make_cluster(sim, n=2)
        with pytest.raises(ValueError):
            MpiJob(hosts, ips[:1], lambda ctx: None)
        with pytest.raises(ValueError):
            MpiJob(hosts[:1], ips[:1], lambda ctx: None)

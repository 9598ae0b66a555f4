"""Congestion-control strategy plane (repro/net/cc.py).

Two layers of protection:

* **Extraction purity** — hardcoded goldens captured on the build
  *before* Reno/Cubic moved out of ``TcpConnection``: with the default
  algorithm the refactored transport must reproduce the exact event
  counts, clocks, and throughputs of the inlined implementation.
* **Strategy behavior** — registry errors, per-connection/layer/app cc
  threading, Cubic's w_max convergence and TCP-friendliness floor,
  BBR's no-loss-collapse property, and the fluid plane's per-algorithm
  ``rate_cap`` curves.
"""

import math

import pytest

from repro.core.options import TransferOptions
from repro.net.addresses import IPv4Address, mac_factory
from repro.net.cc import (BbrCC, CubicCC, RenoCC, cc_class, cc_names,
                          mathis_rate_bps, slow_start_rounds)
from repro.net.tcp import drain_bytes, stream_bytes
from repro.scenarios.builder import host_pair
from repro.sim import Simulator


def _run_transfer(sim, a, b, nbytes, cc=None, port=5001):
    """Stream ``nbytes`` a->b, run until drained; returns result dict."""
    lst = b.tcp.listen(port)
    res = {}

    def srv(sim):
        conn = yield lst.accept()
        res["got"] = yield from drain_bytes(conn)
        res["t_done"] = sim.now

    def cli(sim):
        conn = a.tcp.connect(IPv4Address("10.0.0.2"), port, cc=cc)
        res["conn"] = conn
        yield conn.wait_established()
        yield from stream_bytes(conn, nbytes)
        conn.close()

    p = sim.process(srv(sim))
    sim.process(cli(sim))
    sim.run(until=p)
    return res


class TestExtractionGoldens:
    """Pre-refactor goldens: the strategy extraction is event-identical."""

    def test_wavnet_ttcp_golden(self):
        from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
        from repro.scenarios.stacks import wavnet_pair

        pair = wavnet_pair(0.0742, 18.6e6, seed=2,
                           send_buf=327680, recv_buf=327680)
        sim = pair.sim
        sim.process(ttcp_receiver(pair.host_b))
        tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b,
                                       2 * 1024 * 1024, buf_size=16384))
        sim.run(until=tx)
        # 48 fewer than while the WAN cloud flooded private-candidate
        # ARP requests: 16 flooded copies, 3 events each.
        # An idle, lossless shaped link costs a frame one calendar entry,
        # not two (serializer completion + delivery): 61070 before.
        # A link folds its site switch's forward delay into its delivery:
        # 6082 switch transmit entries fewer (44779 before).
        assert sim.events_dispatched == 38697
        assert sim.now == 8.321956171784915
        assert tx.value.rate_kbps == 1439.4374177960692

    def test_phys_netperf_golden(self):
        from repro.apps.netperf import netperf_stream, netserver
        from repro.scenarios.stacks import physical_pair

        pair = physical_pair(0.020, 50e6, seed=5)
        sim = pair.sim
        sim.process(netserver(pair.host_b))
        p = sim.process(netperf_stream(pair.host_a, pair.ip_b, duration=3.0))
        sim.run(until=p)
        # An idle, lossless shaped link costs a frame one calendar entry,
        # not two (serializer completion + delivery): 141662 before.
        assert sim.events_dispatched == 115157
        assert sim.now == 3.04008192
        assert p.value.throughput_mbps == 46.47562666666667

    def test_ipop_ttcp_golden(self):
        from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
        from repro.scenarios.stacks import ipop_pair

        pair = ipop_pair(0.0742, 18.6e6, seed=3,
                         send_buf=327680, recv_buf=327680)
        sim = pair.sim
        sim.process(ttcp_receiver(pair.host_b))
        tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b, 1024 * 1024,
                                       buf_size=16384))
        sim.run(until=tx)
        # An idle, lossless shaped link costs a frame one calendar entry,
        # not two (serializer completion + delivery): 52260 before.
        # A link folds its site switch's forward delay into its delivery:
        # 5907 switch transmit entries fewer (36508 before).
        assert sim.events_dispatched == 30601
        assert sim.now == 1.8996153161233158
        assert tx.value.rate_kbps == 836.3972337686617

    def test_wavnet_ab_golden(self):
        from repro.apps.ab import ApacheBench
        from repro.apps.httpd import HttpServer
        from repro.scenarios.stacks import wavnet_pair

        pair = wavnet_pair(0.030, 20e6, seed=7)
        sim = pair.sim
        HttpServer(pair.host_b)
        ab = ApacheBench(pair.host_a, pair.ip_b, path="/file8k",
                         concurrency=4)
        p = sim.process(ab.run_requests(60))
        sim.run(until=p)
        # run_requests issues exactly n: the three requests the workers
        # used to start past the 60th are gone (27874 events before).
        # 48 fewer than while the WAN cloud flooded private-candidate
        # ARP requests: 16 flooded copies, 3 events each.
        # An idle, lossless shaped link costs a frame one calendar entry,
        # not two (serializer completion + delivery): 26441 before.
        # A link folds its site switch's forward delay into its delivery:
        # 2533 switch transmit entries fewer (19585 before).
        assert sim.events_dispatched == 17052
        assert sim.now == 8.186810351999949
        assert p.value.requests_per_second == 41.12668697557433
        assert p.value.connect_ms() == (30.376319999998458,
                                        32.39988800000002,
                                        60.79824000000045)

    def test_lossy_cubic_golden(self):
        """2% random loss: fast recovery, RTO, and cubic growth all hit."""
        sim = Simulator(seed=7)
        a, b, _ = host_pair(sim, latency=0.005, bandwidth_bps=20e6,
                            loss=0.02, queue_capacity=64)
        lst = b.tcp.listen(5001)
        res = {}

        def srv(sim):
            conn = yield lst.accept()
            res["got"] = yield from drain_bytes(conn)

        def cli(sim):
            conn = a.tcp.connect(IPv4Address("10.0.0.2"), 5001)
            yield conn.wait_established()
            yield from stream_bytes(conn, 2_000_000)
            conn.close()
            res["rtx"] = conn.retransmits
            res["cwnd"] = conn.cc_algo.cwnd
            res["ssthresh"] = conn.cc_algo.ssthresh

        sim.process(srv(sim))
        sim.process(cli(sim))
        sim.run(until=300)
        # Unmoved by the idle-link bypass: a frame started on a lossy link
        # keeps its completion entry, which draws the loss.
        assert sim.events_dispatched == 22456
        assert sim.now == 300.0
        assert res["got"] == 2_000_000
        assert res["rtx"] == 369
        assert res["cwnd"] == 16774
        assert res["ssthresh"] == 12394

    def test_wavnet_fluid_ttcp_golden(self):
        from repro.apps.ttcp import ttcp_transfer
        from repro.scenarios.fluid import fluidify
        from repro.scenarios.stacks import wavnet_pair

        pair = wavnet_pair(0.0742, 18.6e6, seed=2,
                           send_buf=327680, recv_buf=327680)
        sim = pair.sim
        fluidify(pair)
        tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b,
                                       2 * 1024 * 1024,
                                       options=TransferOptions(
                                           fidelity="fluid")))
        sim.run(until=tx)
        # 48 fewer than while the WAN cloud flooded private-candidate
        # ARP requests: 16 flooded copies, 3 events each.
        # An idle, lossless shaped link costs a frame one calendar entry,
        # not two (serializer completion + delivery): 634 before.
        # A link folds its site switch's forward delay into its delivery:
        # 40 switch transmit entries fewer (441 before).
        assert sim.events_dispatched == 401
        assert sim.now == 8.074181891091174
        assert tx.value.rate_kbps == 1591.3560850714712

    def test_fluid_ab_golden(self):
        from repro.apps.ab import ApacheBench
        from repro.scenarios.fluid import fluidify
        from repro.scenarios.stacks import physical_pair

        pair = physical_pair(0.030, 20e6, seed=7)
        sim = pair.sim
        fluidify(pair)
        ab = ApacheBench(pair.host_a, pair.ip_b, path="/file8k",
                         concurrency=4,
                         options=TransferOptions(fidelity="fluid"))
        p = sim.process(ab.run_requests(60))
        sim.run(until=p)
        # Each round's four concurrent requests finish at one instant and
        # share one ETA and one delivery entry: 15 rounds x 3 x 2 = 90
        # fewer than one entry per flow (461).
        assert sim.events_dispatched == 371
        assert sim.now == 1.452110810958904
        assert p.value.requests_per_second == 41.31916073290501


class TestRegistry:
    def test_known_names(self):
        assert {"reno", "cubic", "bbr"} <= set(cc_names())
        assert cc_class("reno") is RenoCC
        assert cc_class("cubic") is CubicCC
        assert cc_class("bbr") is BbrCC

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError) as err:
            cc_class("vegas")
        msg = str(err.value)
        assert "vegas" in msg
        for name in cc_names():
            assert name in msg

    def test_connection_rejects_unknown_cc(self):
        sim = Simulator(seed=1)
        a, _b, _ = host_pair(sim)
        with pytest.raises(ValueError, match="registered:"):
            a.tcp.connect(IPv4Address("10.0.0.2"), 80, cc="vegas")


class TestCcThreading:
    """The cc= knob reaches the connection at every layer."""

    def test_layer_default_is_cubic(self):
        sim = Simulator(seed=1)
        a, b, _ = host_pair(sim)
        res = _run_transfer(sim, a, b, 10_000)
        assert isinstance(res["conn"].cc_algo, CubicCC)
        assert res["conn"].cc == "cubic"
        assert res["got"] == 10_000

    def test_connect_override_and_layer_default(self):
        sim = Simulator(seed=1)
        a, b, _ = host_pair(sim)
        a.tcp.cc = "reno"  # layer default
        res = _run_transfer(sim, a, b, 10_000)
        assert isinstance(res["conn"].cc_algo, RenoCC)
        res = _run_transfer(sim, a, b, 10_000, cc="bbr", port=5002)
        assert isinstance(res["conn"].cc_algo, BbrCC)

    def test_host_tcp_cc_kwarg(self):
        from repro.net.stack import Host

        sim = Simulator(seed=1)
        host = Host(sim, "h", mac_factory(), tcp_cc="reno")
        assert host.tcp.cc == "reno"

    def test_passive_open_uses_layer_cc(self):
        sim = Simulator(seed=1)
        a, b, _ = host_pair(sim)
        b.tcp.cc = "reno"
        lst = b.tcp.listen(5001)
        got = {}

        def srv(sim):
            conn = yield lst.accept()
            got["conn"] = conn
            yield from drain_bytes(conn)

        def cli(sim):
            conn = a.tcp.connect(IPv4Address("10.0.0.2"), 5001)
            yield conn.wait_established()
            yield from stream_bytes(conn, 5_000)
            conn.close()

        p = sim.process(srv(sim))
        sim.process(cli(sim))
        sim.run(until=p)
        assert isinstance(got["conn"].cc_algo, RenoCC)

    def test_ttcp_and_netperf_cc_knob(self):
        from repro.apps.netperf import netperf_stream, netserver
        from repro.apps.ttcp import ttcp_receiver, ttcp_transfer

        sim = Simulator(seed=2)
        a, b, _ = host_pair(sim)
        sim.process(ttcp_receiver(b))
        tx = sim.process(ttcp_transfer(a, IPv4Address("10.0.0.2"), 100_000,
                                       options=TransferOptions(cc="reno")))
        sim.run(until=tx)
        assert tx.value.rate_kbps > 0
        sim.process(netserver(b))
        p = sim.process(netperf_stream(a, IPv4Address("10.0.0.2"),
                                       duration=1.0,
                                       options=TransferOptions(cc="bbr")))
        sim.run(until=p)
        assert p.value.throughput_mbps > 0

    def test_fluid_open_rejects_unknown_cc(self):
        from repro.net.fluid import FluidLink, FluidNetwork, FluidPath

        sim = Simulator(seed=1)
        net = FluidNetwork(sim)
        link = FluidLink("l", capacity_bps=1e6)
        path = FluidPath(links=((link, 1.0),), rtt=0.01)
        with pytest.raises(ValueError, match="registered:"):
            net.open(path=path, size_bytes=1000, cc="vegas")

    def test_cc_trace_series(self):
        from repro.apps.netperf import netperf_stream, netserver

        sim = Simulator(seed=3)
        a, b, _ = host_pair(sim)
        sim.process(netserver(b))
        p = sim.process(netperf_stream(a, IPv4Address("10.0.0.2"),
                                       duration=1.0,
                                       options=TransferOptions(
                                           cc_trace="probe")))
        sim.run(until=p)
        name = a.stack.name
        cwnd = sim.metrics.series(f"{name}.tcp.probe.cwnd").values
        ssthresh = sim.metrics.series(f"{name}.tcp.probe.ssthresh").values
        srtt = sim.metrics.series(f"{name}.tcp.probe.srtt_ms").values
        assert cwnd.size > 10 and cwnd.size == ssthresh.size == srtt.size
        assert cwnd.min() > 0
        assert srtt.max() > 0


class _FakeConn:
    """Minimal transport stand-in for strategy unit tests."""

    class _Sim:
        def __init__(self):
            self.now = 0.0

    def __init__(self, mss=1460):
        self.mss = mss
        self.sim = self._Sim()
        self.bytes_acked_total = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self._min_rtt = 0.05
        self._last_rtt_sample = 0.05
        self.srtt = 0.05


class TestCubicPaths:
    def test_wmax_convergence_after_loss(self):
        """RFC 8312 shape: after a loss at flight W the window drops to
        beta*W, recovers to w_max around t=K (concave region), then
        accelerates past it (convex probing region)."""
        rtt = 0.2
        conn = _FakeConn()
        conn._min_rtt = conn._last_rtt_sample = conn.srtt = rtt
        cc = CubicCC(conn)
        mss = conn.mss
        wmax_seg = 100
        cc.cwnd = wmax_seg * mss
        cc.ssthresh = mss  # force congestion avoidance
        cc.on_dup_ack(wmax_seg * mss)   # loss at flight = w_max
        cc.on_loss_exit()
        assert cc._wmax == pytest.approx(wmax_seg)
        assert cc.cwnd == int(wmax_seg * mss * CubicCC.BETA)
        k = (wmax_seg * (1 - CubicCC.BETA) / CubicCC.C) ** (1 / 3)
        # Drive ACK-clocked growth: one window of ACKs per RTT.
        trajectory = {}
        prev = cc.cwnd
        for step in range(int(2 * k / rtt) + 3):
            conn.sim.now = step * rtt
            for _ in range(cc.cwnd // mss):
                cc.on_ack(mss, cc.cwnd)
            assert cc.cwnd >= prev  # monotone recovery, no re-collapse
            prev = cc.cwnd
            trajectory[conn.sim.now] = cc.cwnd / mss
        # The window re-crosses w_max in the neighborhood of t = K (the
        # TCP-friendliness floor can pull it a little earlier, never
        # later).
        t_cross = min(t for t, w in trajectory.items() if w >= wmax_seg)
        assert 0.4 * k <= t_cross <= 1.2 * k
        # Past K the convex region probes well beyond w_max.
        assert trajectory[max(trajectory)] > wmax_seg * 1.1

    def test_tcp_friendliness_floor(self):
        """Where the cubic curve is flat (t == K, target == cwnd), growth
        must not stall: the Reno floor adds ~mss^2/cwnd per ACK."""
        conn = _FakeConn()
        cc = CubicCC(conn)
        mss = conn.mss
        cc.cwnd = 100 * mss
        cc.ssthresh = mss
        cc._wmax = 100.0
        cc._epoch = 0.0
        k = (100 * (1 - CubicCC.BETA) / CubicCC.C) ** (1 / 3)
        conn.sim.now = k  # exactly at the plateau: target == w_max == cur
        before = cc.cwnd
        cc.on_ack(mss, cc.cwnd)
        assert cc.cwnd - before == max(mss * mss // before, 1)

    def test_rate_cap_floors_at_mathis(self):
        """High loss: the RFC 8312 response dips below Reno; the
        friendliness floor keeps the fluid cap at Mathis. Low loss and
        long RTT: cubic's cap exceeds Reno's (the regime CUBIC was
        designed for)."""
        rtt = 0.1
        for loss in (1e-5, 1e-4, 1e-3, 1e-2):
            assert CubicCC.rate_cap(1460, rtt, loss) >= \
                mathis_rate_bps(1460, rtt, loss)
        assert CubicCC.rate_cap(1460, 0.2, 1e-6) > \
            mathis_rate_bps(1460, 0.2, 1e-6)
        assert CubicCC.rate_cap(1460, 0.1, 0.0) == math.inf


class TestRenoPaths:
    def test_rto_collapses_the_window_to_one_segment(self):
        """A timeout restarts from one segment; ssthresh is half the
        flight, or half the window when the loss is a short tail."""
        conn = _FakeConn()
        mss = conn.mss
        cc = RenoCC(conn)
        cc.cwnd = 40 * mss
        cc.on_rto(20 * mss)
        assert (cc.cwnd, cc.ssthresh) == (mss, 10 * mss)
        cc.cwnd = 40 * mss
        cc.on_rto(3 * mss)  # tail loss: keep half the window
        assert (cc.cwnd, cc.ssthresh) == (mss, 20 * mss)
        cc.cwnd = 2 * mss
        cc.on_rto(mss)
        assert cc.ssthresh == 2 * mss  # floor


class TestBbrBehavior:
    def test_no_loss_collapse_hooks(self):
        """dup-ACK and recovery exit leave the BBR window model-based."""
        conn = _FakeConn()
        cc = BbrCC(conn)
        cc.mode = "probe_bw"
        cc.btl_bw = 1e6 / 8
        cc.cwnd = 80_000
        before = cc.cwnd
        cc.on_dup_ack(before)
        assert cc.cwnd == before          # no multiplicative decrease
        assert cc.ssthresh == before      # recovery exit becomes a no-op
        cc.on_loss_exit()
        assert cc.cwnd == int(max(cc.CWND_GAIN * cc._bdp_bytes(),
                                  cc.MIN_CWND_SEGMENTS * conn.mss))
        cc.on_rto(before)
        assert cc.cwnd == cc.MIN_CWND_SEGMENTS * conn.mss  # restart ...
        assert cc.btl_bw == 1e6 / 8       # ... but the filter survives

    def test_rate_cap_is_unbounded(self):
        assert BbrCC.rate_cap(1460, 0.1, 0.02) == math.inf

    def test_bbr_beats_reno_under_random_loss(self):
        """The headline property: on a 2%-loss path BBR sustains the
        bandwidth-probed rate while Reno is Mathis-capped well below."""
        done = {}
        for cc in ("reno", "bbr"):
            sim = Simulator(seed=11)
            a, b, _ = host_pair(sim, latency=0.010, bandwidth_bps=20e6,
                                loss=0.02, queue_capacity=64)
            res = _run_transfer(sim, a, b, 1_000_000, cc=cc)
            assert res["got"] == 1_000_000
            done[cc] = res["t_done"]
        assert done["bbr"] < done["reno"] / 2.0


class TestSlowStartRounds:
    def test_matches_hand_rolled_loop(self):
        mss = 1460
        for size, per_rtt in ((1000, 1e9), (8 * 1024, 1e9), (64 * 1024, 1e9),
                              (64 * 1024, 8 * mss), (10 ** 6, 32 * mss)):
            rounds, sent = slow_start_rounds(size, mss, per_rtt)
            # Reference: the loop ab.py used to inline.
            s, cwnd, r = 0, 3 * mss, 1
            while s + cwnd < size and cwnd < per_rtt:
                s += cwnd
                cwnd *= 2
                r += 1
            assert (rounds, sent) == (r, s)

    def test_initial_window_fits_in_one_round(self):
        rounds, sent = slow_start_rounds(3 * 1460, 1460, 1e9)
        assert rounds == 1 and sent == 0

"""Named sweeps runnable from the CLI (``python -m repro.exp run <name>``).

Each entry is a zero-argument factory returning a fresh :class:`Sweep`;
its docstring is the one line ``python -m repro.exp list`` prints. Every
figure, table and ablation bench renders the sweep of its name, so the
CLI and ``pytest benchmarks/`` run the same grids.
"""

from __future__ import annotations

from typing import Callable

from repro.exp.sweep import Sweep

__all__ = ["SWEEPS", "get_sweep", "register_sweep", "sweep_names"]

SWEEPS: dict[str, Callable[[], Sweep]] = {}


def register_sweep(name: str):
    def deco(factory: Callable[[], Sweep]) -> Callable[[], Sweep]:
        if name in SWEEPS:
            raise ValueError(f"sweep {name!r} already registered")
        SWEEPS[name] = factory
        return factory

    return deco


def get_sweep(name: str) -> Sweep:
    try:
        factory = SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r}; available: {sweep_names()}") from None
    return factory()


def sweep_names() -> list[str]:
    return sorted(SWEEPS)


STACKS = ["physical", "wavnet", "ipop"]
WEB_VM = {"sites": ["hku1", "hku2", "siat", "sinica"], "app": "ab",
          "clients": ["sinica", "hku1"]}
HOT_2PCT = [0.02, 10_000.0, 50.0]  # hot/cold dirty model: 2 % hot pages


@register_sweep("smoke")
def _smoke() -> Sweep:
    """4 cheap physical-stack pings over an RTT axis (CI's resume check)."""
    return (Sweep("smoke", "stack_ping",
                  base_params={"stack": "physical", "probes": 6},
                  seed=1)
            .add_axis("rtt_ms", [20.0, 50.0, 100.0, 200.0]))


@register_sweep("churn8")
def _churn8() -> Sweep:
    """Churn recovery over 8 seeds (the sweep gate's timed workload)."""
    return (Sweep("churn8", "churn_recovery",
                  metrics=["*.driver.repair.seconds",
                           "*.driver.rvz.failover_seconds",
                           "*.driver.frames.dropped_outage"])
            .add_axis("seed", [7, 11, 23, 42, 101, 131, 151, 173]))


@register_sweep("nat_matrix")
def _nat_matrix() -> Sweep:
    """Hole punching across every NAT-type pairing (Table 2 of §II.B)."""
    types = ["full-cone", "restricted-cone", "port-restricted"]
    return (Sweep("nat_matrix", "wavnet_mesh", base_params={"n_hosts": 2})
            .add_axis("nat_type", types))


@register_sweep("table2")
def _table2() -> Sweep:
    """Table II: ICMP RTT for every site pair across all three stacks."""
    from repro.scenarios.sites import pair_rtt_ms

    pairs = [("hku1", "siat"), ("hku1", "pu"), ("siat", "pu")]
    return (Sweep("table2", "stack_ping",
                  base_params={"bandwidth_mbps": 50.0, "probes": 12})
            .zip_axes(pair=[f"{a.upper()}-{b.upper()}" for a, b in pairs],
                      rtt_ms=[pair_rtt_ms(a, b) for a, b in pairs])
            .zip_axes(stack=STACKS, seed=[1, 2, 3]))


@register_sweep("table3")
def _table3() -> Sweep:
    """Table III: ab connect time to a VM before/after SIAT -> HKU2."""
    return Sweep("table3", "wan_vm", base_params={**WEB_VM, "requests": 25},
                 seed=70)


@register_sweep("table4")
def _table4() -> Sweep:
    """Table IV: ab -c 8 req/s per file size before/after SIAT -> HKU2."""
    return Sweep("table4", "wan_vm",
                 base_params={**WEB_VM, "concurrency": 8,
                              "files": ["/file1k", "/file8k", "/file64k"]},
                 seed=71)


@register_sweep("table5")
def _table5() -> Sweep:
    """Table V: 32/128 MB VM migration time from each site to HKU."""
    sources = ["offcam", "sinica", "aist", "siat", "sdsc"]
    return (Sweep("table5", "wan_vm",
                  base_params={"to": "hku1", "tcp_mss": 8192, "settle": 0.0,
                               "dirty": [0.04, 4000, 20]}, seed=72)
            .zip_axes(sites=[["hku1", s] for s in sources], vms=[[s] for s in sources])
            .add_axis("memory_mb", [32, 128]))


@register_sweep("fig06")
def _fig06() -> Sweep:
    """Figure 6: ttcp KB/s over HKU-SIAT per transfer size and stack."""
    from repro.scenarios.sites import pair_rtt_ms

    # 18.6 Mbps x 74 ms BDP = 172 kB; era-typical tuned buffers ~ 2 x BDP
    # (window-limited just below path capacity, the stable operating point).
    return (Sweep("fig06", "stack_app",
                  base_params={"rtt_ms": pair_rtt_ms("hku1", "siat"),
                               "bandwidth_mbps": 18.6, "tcp_buf": 327680})
            .add_axis("ttcp_mb", [8, 16, 32])
            .zip_axes(stack=STACKS, seed=[1, 2, 3]))


@register_sweep("fig07")
def _fig07() -> Sweep:
    """Figure 7: 12 s netperf per shaped WAN rate and stack."""
    # Emulated WAN: a LAN-latency fabric, bandwidth-shaped only.
    return (Sweep("fig07", "stack_app",
                  base_params={"rtt_ms": 1.0, "netperf_s": 12.0})
            .add_axis("bandwidth_mbps", [6.25, 12.5, 25, 50, 100])
            .zip_axes(stack=STACKS, seed=[1, 2, 3]))


@register_sweep("fig08")
def _fig08() -> Sweep:
    """Figure 8: netperf per-host bandwidth vs virtual cluster size."""
    # n_hosts locked to its seed; 6 sampled peers per size; the 8192 B
    # MSS is a jumbo abstraction, the same at every size.
    sizes = [8, 16, 24, 32, 48, 64]
    return (Sweep("fig08", "netperf_cluster",
                  base_params={"wan_bandwidth_bps": 100e6, "tcp_mss": 8192,
                               "udp_timeout": 30.0, "sample_peers": 6,
                               "duration": 5.0})
            .zip_axes(n_hosts=sizes, seed=[50 + n for n in sizes]))


@register_sweep("fig09")
def _fig09() -> Sweep:
    """Figure 9: netperf to a VM migrating at t=10 s on LAN/WAVNet/IPOP."""
    # LAN and WAVNet run a jumbo-segment abstraction to keep the packet-
    # level simulation tractable; IPOP keeps 1460 (its 1280 B P2P MTU +
    # host 1500 MTU fragmentation is part of what is being measured).
    return (Sweep("fig09", "migration_timeline",
                  base_params={"stream_s": 60.0})
            .zip_axes(stack=["lan", "wavnet", "ipop"], seed=[61, 62, 63],
                      tcp_mss=[8192, 8192, 1460]))


@register_sweep("fig10")
def _fig10() -> Sweep:
    """Figure 10: RTT and ab req/s as a web VM migrates to HKU at t=10 s."""
    # The paper uses ab -c 50 "for illustration"; 3 workers keep the
    # simulation tractable while showing the same dip-and-jump timeline.
    sources = ["aist", "siat", "offcam"]
    return (Sweep("fig10", "wan_vm",
                  base_params={"app": "timeline", "clients": ["hku1"],
                               "memory_mb": 32, "dirty": HOT_2PCT,
                               "concurrency": 3, "duration": 40.0,
                               "migrate_at": 10.0})
            .zip_axes(sites=[["hku1", "hku2", s] for s in sources],
                      vms=[[s] for s in sources], seed=[80, 81, 82]))


@register_sweep("fig11")
def _fig11() -> Sweep:
    """Figure 11: MPI heat with and without moving the SIAT rank."""
    # hku1, hku2 and the OffCam home PC stand in for the paper's three
    # HKU-side machines.
    sizes = [64, 128, 256]
    sites = ["hku1", "hku2", "offcam", "siat"]
    return (Sweep("fig11", "wan_vm",
                  base_params={"sites": sites, "vms": sites, "app": "heat",
                               "memory_mb": 24, "dirty": HOT_2PCT,
                               "tcp_mss": 8192, "settle": 2.0, "migrate_at": 5.0})
            .zip_axes(grid=sizes, seed=[90 + m for m in sizes])
            .add_axis("to", ["", "hku1"]))


@register_sweep("fig12")
def _fig12() -> Sweep:
    """Figure 12: the pair-latency distribution of the 400-host matrix."""
    return Sweep("fig12", "planetlab_grouping",
                 base_params={"problems": [[400, 12, 0, []]]})


@register_sweep("fig13")
def _fig13() -> Sweep:
    """Figure 13: locality-sensitive vs random groups, k = 2..75."""
    ks = [2, 4, 8, 16, 24, 32, 48, 64, 75]
    # The paper's grouping step "filters those with at least one
    # unreasonable or over-large connection"; 200 ms is over-large here.
    return Sweep("fig13", "planetlab_grouping",
                 base_params={"problems": [[400, 12, k, ["ls", "random"]] for k in ks],
                              "draws": 15, "max_latency": 0.2})


@register_sweep("fig14")
def _fig14() -> Sweep:
    """Figure 14: NAS EP/FT on locality-sensitive vs random clusters."""
    return Sweep("fig14", "planetlab_nas", seed=7)


@register_sweep("ablation_grouping")
def _ablation_grouping() -> Sweep:
    """Grouping algorithms' quality and cost on a 24- and a 300-host matrix."""
    return Sweep("ablation_grouping", "planetlab_grouping",
                 base_params={"problems": [[24, 5, 5, ["brute", "ls", "greedy", "random"]],
                                           [300, 6, 16, ["ls", "greedy", "random"]]],
                              "max_latency": None}, seed=2)


@register_sweep("ablation_keepalive")
def _ablation_keepalive() -> Sweep:
    """CONNECT_PULSE period against a 60 s NAT timeout over 600 s idle."""
    return (Sweep("ablation_keepalive", "wavnet_keepalive", seed=35)
            .add_axis("pulse_interval", [2.0, 5.0, 20.0, 45.0, 90.0]))


@register_sweep("ablation_migration")
def _ablation_migration() -> Sweep:
    """Iterative pre-copy vs stop-and-copy (max_rounds=0) on a LAN."""
    return (Sweep("ablation_migration", "migration_timeline",
                  base_params={"bandwidth_mbps": 200.0,
                               "dirty": [0.03, 10_000.0, 50.0]}, seed=37)
            .add_axis("max_rounds", [30, 0]))


@register_sweep("ablation_overlay_datapath")
def _ablation_overlay_datapath() -> Sweep:
    """RTT and netperf: WAVNet tunnel vs direct vs relayed IPOP."""
    return (Sweep("ablation_overlay_datapath", "stack_app",
                  base_params={"rtt_ms": 25.0, "bandwidth_mbps": 50.0,
                               "probes": 6, "netperf_s": 10.0})
            .zip_axes(stack=["wavnet", "ipop", "ipop-relayed"], seed=[32, 33, 31]))

"""Named sweeps runnable from the CLI (``python -m repro.exp run <name>``).

Each entry is a zero-argument factory returning a fresh :class:`Sweep`.
The canonical grids live here, so ``python -m repro.exp list`` shows
what the repo can run and the fig08 / table2 benches run the same grid
the CLI does.
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


@register_sweep("smoke")
def _smoke() -> Sweep:
    """4 cheap points: physical-stack ping over a small RTT axis (CI's
    gates job runs this with ``--workers 2``, twice, to check resume)."""
    return (Sweep("smoke", "stack_ping",
                  base_params={"stack": "physical", "probes": 6},
                  seed=1)
            .add_axis("rtt_ms", [20.0, 50.0, 100.0, 200.0]))


@register_sweep("churn8")
def _churn8() -> Sweep:
    """The 8-seed churn-recovery sweep (full horizon) — the workload
    the ``sweep`` gate times serial vs sharded."""
    return (Sweep("churn8", "churn_recovery",
                  metrics=["*.driver.repair.seconds",
                           "*.driver.rvz.failover_seconds",
                           "*.driver.frames.dropped_outage"])
            .add_axis("seed", [7, 11, 23, 42, 101, 131, 151, 173]))


@register_sweep("fig08")
def _fig08() -> Sweep:
    """Figure 8: netperf per-host bandwidth vs virtual cluster size
    (``n_hosts`` locked to its seed; 6 sampled peers per size; the 8192 B
    MSS is a jumbo abstraction, the same at every size)."""
    sizes = [8, 16, 24, 32, 48, 64]
    return (Sweep("fig08", "netperf_cluster",
                  base_params={"wan_bandwidth_bps": 100e6, "tcp_mss": 8192,
                               "udp_timeout": 30.0, "sample_peers": 6,
                               "duration": 5.0})
            .zip_axes(n_hosts=sizes, seed=[50 + n for n in sizes]))


@register_sweep("table2")
def _table2() -> Sweep:
    """Table II: ICMP RTT for every site pair across all three stacks."""
    from repro.scenarios.sites import pair_rtt_ms

    pairs = [("hku1", "siat"), ("hku1", "pu"), ("siat", "pu")]
    return (Sweep("table2", "stack_ping",
                  base_params={"bandwidth_mbps": 50.0, "probes": 12})
            .zip_axes(pair=[f"{a.upper()}-{b.upper()}" for a, b in pairs],
                      rtt_ms=[pair_rtt_ms(a, b) for a, b in pairs])
            .zip_axes(stack=["physical", "wavnet", "ipop"],
                      seed=[1, 2, 3]))


@register_sweep("nat_matrix")
def _nat_matrix() -> Sweep:
    """Hole punching across every NAT-type pairing (Table 2 of §II.B)."""
    types = ["full-cone", "restricted-cone", "port-restricted"]
    return (Sweep("nat_matrix", "wavnet_mesh", base_params={"n_hosts": 2})
            .add_axis("nat_type", types))


@register_sweep("planetlab")
def _planetlab() -> Sweep:
    """Grouping quality across PlanetLab-matrix seeds (Figs 12-13)."""
    return (Sweep("planetlab", "planetlab_grouping",
                  base_params={"n_hosts": 200, "k": 8})
            .add_axis("seed", [3, 5, 8, 13]))

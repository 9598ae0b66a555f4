"""Topology builders for the paper's three evaluation environments.

* :mod:`repro.scenarios.builder` — generic assembly helpers (host pairs,
  LANs, NATed sites on a WAN cloud).
* :mod:`repro.scenarios.sites` — the 7-site real-WAN testbed of Table I.
* :mod:`repro.scenarios.emulated` — the 64-host emulated WAN.
* :mod:`repro.scenarios.planetlab` — synthetic 400-host latency matrices
  for the grouping experiments (Figs 12-14).
* :mod:`repro.scenarios.stacks` — matched physical/WAVNet/IPOP endpoint
  pairs for the head-to-head comparisons (Table II, Figs 6-7).
* :mod:`repro.scenarios.churn` — the self-healing mesh under a scripted
  fault schedule.
* :mod:`repro.scenarios.migration` — VMs live-migrating on the real-WAN
  testbed, a LAN, an emulated WAVNet WAN or IPOP (Tables III-V, Figs 9-11).

These modules also register the named experiment scenarios
(``stack_ping``, ``churn_recovery``, ``netperf_cluster``, ...) that
:mod:`repro.exp` sweeps resolve by name.
"""

from repro.scenarios.builder import (
    Lan,
    NattedSite,
    host_pair,
    make_lan,
    make_natted_site,
)

# The stack-pair builders live one import hop above the driver stack
# (stacks -> wavnet_env -> core.driver), and core.driver itself reaches
# this package through repro.stun — so re-export them lazily to keep
# `import repro` acyclic.
_STACK_EXPORTS = ("StackPair", "ipop_pair", "physical_pair", "stack_pair",
                  "wavnet_pair")


def __getattr__(name: str):
    if name in _STACK_EXPORTS:
        from repro.scenarios import stacks

        return getattr(stacks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Lan",
    "NattedSite",
    "StackPair",
    "host_pair",
    "ipop_pair",
    "make_lan",
    "make_natted_site",
    "physical_pair",
    "stack_pair",
    "wavnet_pair",
]

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

"""WAVNet reproduction: wide-area network virtualization for virtual
private clouds (Xu, Di, Zhang, Cheng, Wang — ICPP 2011), rebuilt as a
Python library on a deterministic discrete-event network simulator.

Quickstart::

    from repro import Simulator, WavnetEnvironment

    sim = Simulator(seed=1)
    env = WavnetEnvironment(sim)
    env.add_host("alice", nat_type="port-restricted")
    env.add_host("bob", nat_type="full-cone")
    sim.run(until=sim.process(env.start_all()))
    sim.run(until=sim.process(env.connect_pair("alice", "bob")))
    # alice and bob now share a layer-2 virtual LAN across their NATs.

The names exported here are the supported surface for building and
running experiments: deployment assembly (:class:`WavnetEnvironment`,
:class:`WavnetDriver`, :class:`NatType`), per-call behaviour bundles
(:class:`ConnectOptions`, :class:`TransferOptions`), the experiment
plane (:class:`ExperimentSpec`, :class:`Sweep`, :class:`SweepRunner`,
:func:`run_sweep`), fault injection (:class:`FaultPlan`,
:class:`FaultInjector`), and VM migration (:class:`Hypervisor`,
:class:`VirtualMachine`).

Package map: :mod:`repro.sim` (event kernel), :mod:`repro.net` (network
substrate), :mod:`repro.nat` / :mod:`repro.stun` (NAT traversal),
:mod:`repro.overlay` (CAN rendezvous layer), :mod:`repro.core` (WAVNet
itself), :mod:`repro.vm` (live migration), :mod:`repro.baselines`
(IPOP comparator), :mod:`repro.apps` (workloads), :mod:`repro.exp`
(experiment plane), :mod:`repro.faults` (failure injection), and
:mod:`repro.scenarios` (the paper's testbeds).
"""

from repro.core.driver import WavnetDriver
from repro.core.grouping import (
    brute_force_group,
    greedy_group,
    locality_sensitive_group,
    random_group,
)
from repro.core.latency import LatencyMatrix
from repro.core.options import ConnectOptions, TransferOptions
from repro.exp import ExperimentSpec, Sweep, SweepRunner, run_sweep
from repro.faults import FaultInjector, FaultPlan
from repro.nat.types import NatType
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator
from repro.vm.hypervisor import Hypervisor
from repro.vm.machine import VirtualMachine

__version__ = "1.0.0"

__all__ = [
    "ConnectOptions",
    "ExperimentSpec",
    "FaultInjector",
    "FaultPlan",
    "Hypervisor",
    "LatencyMatrix",
    "NatType",
    "Simulator",
    "Sweep",
    "SweepRunner",
    "TransferOptions",
    "VirtualMachine",
    "WavnetDriver",
    "WavnetEnvironment",
    "brute_force_group",
    "greedy_group",
    "locality_sensitive_group",
    "random_group",
    "run_sweep",
    "__version__",
]

"""ConnectOptions/TransferOptions bundles.

Every connect/transfer entry point (driver.connect, connect_by_name,
ttcp_transfer, netperf_stream, ApacheBench) takes its
knobs through one typed ``options=`` bundle.
"""

import warnings

import pytest

from repro import ConnectOptions, Simulator, TransferOptions, WavnetEnvironment
from repro.apps.ab import ApacheBench
from repro.apps.ttcp import ttcp_transfer
from repro.net.addresses import IPv4Address
from repro.scenarios.builder import host_pair
from repro.scenarios.fluid import fluid_fanout


def test_top_level_api_surface():
    import repro

    for name in ("WavnetEnvironment", "WavnetDriver", "ExperimentSpec",
                 "Sweep", "SweepRunner", "FaultPlan", "FaultInjector",
                 "run_sweep", "ConnectOptions",
                 "TransferOptions", "Simulator", "NatType"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_options_path_emits_no_warning():
    sim = Simulator(seed=1)
    a, _b, _link = host_pair(sim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ab = ApacheBench(a, IPv4Address("10.0.0.2"),
                         options=TransferOptions(fidelity="fluid", cc="bbr"))
    assert (ab.fidelity, ab.cc) == ("fluid", "bbr")


def test_wrong_options_type_raises():
    sim = Simulator(seed=1)
    a, _b, _link = host_pair(sim)
    with pytest.raises(TypeError, match="ApacheBench.*TransferOptions"):
        ApacheBench(a, IPv4Address("10.0.0.2"), options=ConnectOptions())
    gen = ttcp_transfer(a, IPv4Address("10.0.0.2"), 1000,
                        options=ConnectOptions())
    with pytest.raises(TypeError, match="ttcp_transfer.*TransferOptions"):
        next(gen)  # generator body (and the check) runs on first advance


def test_fidelity_is_checked_in_one_place():
    """An unknown fidelity is one ValueError, from the options bundle or a
    fidelity-taking scenario; a fluid run without a fluid network is one
    RuntimeError."""
    with pytest.raises(ValueError, match="unknown fidelity 'quantum'"):
        TransferOptions(fidelity="quantum")
    with pytest.raises(ValueError, match="unknown fidelity 'quantum'"):
        fluid_fanout(fidelity="quantum")
    sim = Simulator(seed=1)
    a, _b, _link = host_pair(sim)
    gen = ttcp_transfer(a, IPv4Address("10.0.0.2"), 1000,
                        options=TransferOptions(fidelity="fluid"))
    with pytest.raises(RuntimeError, match="requires a FluidNetwork"):
        next(gen)


def test_driver_connect_options_bundle():
    sim = Simulator(seed=9)
    env = WavnetEnvironment(sim)
    env.add_host("a")
    env.add_host("b")
    env.up()
    driver = env.hosts["a"].driver
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        conn = sim.run_coro(driver.connect_by_name(
            "b", options=ConnectOptions(allow_relay=False)))
    assert conn.usable and not conn.relayed

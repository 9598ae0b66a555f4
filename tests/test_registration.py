"""The one registration path: the vectorized table write against the
row-at-a-time oracle, and what a built host's registration and
keepalives do to its table row and on the wire."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hoststate import SPEC, HostTable, Registration
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.rendezvous import RENDEZVOUS_PORT
from repro.overlay.resources import ConnectionInfo
from repro.overlay.rpc import ENVELOPE_OVERHEAD
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator
from tests.hoststate_oracle import ScalarHostTable

_ips = st.integers(0, 2**32 - 1).map(IPv4Address)
_ports = st.integers(0, 65535)
_conns = st.builds(ConnectionInfo, rendezvous_ip=_ips, rendezvous_port=_ports,
                   public_ip=_ips, public_port=_ports, private_ip=_ips,
                   private_port=_ports, nat_type=st.sampled_from(list(NatType)),
                   alloc_stride=_ports)
# Each attribute over and past its range, its ends (the top maps just
# below 1.0 in CAN space) drawn on purpose.
_attrs = st.fixed_dictionaries({
    name: st.one_of(st.sampled_from([lo, hi, 2 * hi]),
                    st.floats(lo - (hi - lo), hi + (hi - lo), allow_nan=False))
    for name, lo, hi in SPEC.attributes})
_rows = st.lists(st.tuples(st.sampled_from([f"h{i}" for i in range(12)]),
                           _conns, _attrs),
                 min_size=1, max_size=4, unique_by=lambda row: row[0])
_steps = st.lists(st.tuples(_rows, st.tuples(_ips, _ports), st.tuples(_ips, _ports),
                            st.floats(0.0, 1e6), st.integers(-1, 7),
                            st.integers(-1, 7)),
                  min_size=1, max_size=24)
_COLUMNS = [f.name for f in fields(Registration) if f.name not in ("names", "region")]


@given(steps=_steps)
@settings(max_examples=200, deadline=None)
def test_register_matches_the_row_at_a_time_oracle(steps):
    """A batch of built hosts' one-row registrations, stacked into one
    ``Registration`` as a storm lane sends them, leaves the table as
    registering each row alone did before the registration paths were
    one: every column, generation and handle, the row index and the
    ``hosttable.registered`` count — re-registrations, owners, regions
    and every NAT type, stride and port range included."""
    sim, sim_oracle = Simulator(seed=1), Simulator(seed=1)
    table, oracle = HostTable(sim), ScalarHostTable(sim_oracle)
    for rows, rendezvous, reach, now, owner, region in steps:
        regs = [Registration.of(name, conn, attrs) for name, conn, attrs in rows]
        batch = Registration(names=tuple(name for name, _c, _a in rows),
                             region=region,
                             **{c: np.concatenate([getattr(r, c) for r in regs])
                                for c in _COLUMNS})
        ids = table.register(batch, rendezvous, reach, now, owner)
        # The server stamps its own address as the rendezvous; the
        # oracle took the host's word for it.
        expected = [oracle.register(name, replace(conn, rendezvous_ip=rendezvous[0],
                                                  rendezvous_port=rendezvous[1]),
                                    attrs, reach, now, owner, region)
                    for name, conn, attrs in rows]
        assert ids.tolist() == expected
        for column in HostTable._COLUMNS:
            assert np.array_equal(getattr(table, column), getattr(oracle, column)), column
        assert table._names == oracle._names and table._ids == oracle._ids
        assert ([table.handle(i) for i in range(len(table))]
                == [oracle.handle(i) for i in range(len(oracle))])
        assert (sim.metrics.value("hosttable.registered")
                == sim_oracle.metrics.value("hosttable.registered"))


def _env(n_rendezvous=1, seed=21):
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, n_rendezvous=n_rendezvous)
    env.add_host("a", rendezvous_index=0)
    env.up()
    return sim, env


def test_keepalive_from_a_moved_nat_mapping_updates_reach():
    """The NAT reboots and forgets the driver's mapping; the next
    keepalive leaves through a fresh one, and the server re-points the
    row's reach endpoint (where punch notices and relayed frames go) at
    it. No re-registration happens: the generation holds."""
    sim, env = _env()
    wav = env.hosts["a"]
    i = env.table.lookup("a")
    old = (int(env.table.reach_ip[i]), int(env.table.reach_port[i]))
    generation = int(env.table.generation[i])
    wav.site.nat.reboot()
    sim.run(until=sim.now + wav.driver.keepalive_interval + 1.0)
    rvz = env.rendezvous[0]
    public_ip, port = wav.site.nat.external_endpoint_for(
        wav.host.stack.ips[0], wav.driver.sock.port, rvz.ip, RENDEZVOUS_PORT)
    assert int(env.table.reach_port[i]) == port != old[1]
    assert int(env.table.reach_ip[i]) == public_ip.value == old[0]
    assert int(env.table.generation[i]) == generation


@pytest.mark.parametrize("drop", ["release_owner", "expire_hosts"])
def test_keepalives_for_a_dropped_registration_fail_over(drop):
    """The server drops the host's registration while the host is still
    up. Its keepalives now count as failures; the first alone does not
    move it, the second sends it to the other rendezvous."""
    sim, env = _env(n_rendezvous=2)
    driver = env.hosts["a"].driver
    first, second = env.rendezvous
    i = env.table.lookup("a")
    if drop == "release_owner":
        assert env.table.release_owner(0) == ["a"]
    else:
        env.table.last_seen[i] = sim.now - first.host_ttl - 1.0
        assert first.expire_hosts() == ["a"]
    failovers = sim.metrics.get("a.driver.rvz.failovers")
    sim.run(until=sim.now + driver.keepalive_interval)
    assert driver.rendezvous_ip == first.ip and failovers.value == 0
    assert first.registered("a") == -1
    sim.run(until=sim.now + driver.keepalive_interval + 5.0)
    assert driver.rendezvous_ip == second.ip and failovers.value == 1
    assert second.registered("a") == i and first.registered("a") == -1


def test_one_host_registration_and_keepalive_bill_64_bytes():
    """A built host's registration and keepalive bodies are 64 B each on
    the wire, after the RPC envelope. Every simulated timing downstream
    reads these sizes: a keepalive billed at ``16 + 8·n`` (24 B for one
    name) moved the ``mice_elephants`` perf digest from
    ``ed788cb2d2ddb243`` to ``2845103e5b5ba5b2`` and the fairness gate's
    ``mice_fct_ms_mean`` from 3275.1 to 3274.9; at 64 B all seven
    digests hold (``run.py --workload W --seconds 0.1``, seed 7)."""
    sim = Simulator(seed=21)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    env.add_host("a", rendezvous_index=0)
    rvz = env.rendezvous[0]
    seen = []
    inner = rvz._sock.handler

    def spy(payload, src_ip, src_port):
        envelope = payload.data
        if not getattr(envelope, "is_reply", True):  # a request
            seen.append((envelope.kind, payload.size))
        inner(payload, src_ip, src_port)

    rvz._sock.handler = spy
    env.up()
    sim.run(until=sim.now + env.hosts["a"].driver.keepalive_interval + 1.0)
    assert dict(seen) == {"rvz.register": ENVELOPE_OVERHEAD + 64,
                          "rvz.keepalive": ENVELOPE_OVERHEAD + 64}
    assert [kind for kind, _ in seen].count("rvz.keepalive") == 1

"""NAT-traversal matrix and path-migration scenarios (DESIGN.md §16).

Three registered scenarios back ``tests/test_traversal.py`` and
``benchmarks/bench_traversal.py``:

* ``traversal_pair``    — one WAVNet pair across an arbitrary NAT×NAT
  cell; reports whether the punch went direct or fell back to relay.
* ``ipop_traversal``    — the same cell under the IPOP baseline's
  scripted simultaneous-hello bootstrap (no port prediction), reporting
  whether a direct overlay edge formed.
* ``migration_repair``  — an established pair whose NAT reboots;
  measures time-to-repair either via QUIC-style path migration
  (``migration=True``) or the classic liveness-death → re-punch loop.

NAT specs accept the combined ``"<type>-<policy>"`` form, e.g.
``"symmetric-sequential"`` (see :func:`repro.nat.types.split_nat_spec`).
"""

from __future__ import annotations

from repro.exp.spec import scenario
from repro.faults import FaultPlan
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["NAT_SPECS", "expected_direct", "ipop_traversal",
           "migration_repair", "traversal_pair"]

#: The NAT-type axis of the traversal matrix (both sides).
NAT_SPECS = ("full-cone", "restricted-cone", "port-restricted",
             "symmetric-sequential", "symmetric-random")


def expected_direct(nat_a: str, nat_b: str) -> bool:
    """Whether WAVNet (with port prediction) should punch the cell
    directly. Any cone×cone cell punches classically; a predictable
    (sequential) symmetric side punches against anything predictable or
    cone; a random-allocating symmetric side is only reachable direct
    when the *other* side filters on IP alone (full/restricted cone) —
    its unpredictable port defeats prediction, but cone filters do not
    care which port the reply comes from."""
    def sym(s):
        return s.startswith("symmetric")

    def predictable(s):
        return s == "symmetric-sequential"

    if not sym(nat_a) and not sym(nat_b):
        return True
    for mine, other in ((nat_a, nat_b), (nat_b, nat_a)):
        if sym(mine) and not predictable(mine):
            # Random symmetric side: direct only if the peer admits
            # replies from any port (IP-restricted or open filter).
            if other not in ("full-cone", "restricted-cone"):
                return False
    return True


def _pair_env(sim: Simulator, nat_a: str, nat_b: str, rtt: float,
              **host_kwargs) -> WavnetEnvironment:
    env = WavnetEnvironment(sim, default_latency=rtt / 2.0, n_rendezvous=1)
    env.add_host("ta", nat_type=nat_a, **host_kwargs)
    env.add_host("tb", nat_type=nat_b, **host_kwargs)
    return env


@scenario("traversal_pair")
def traversal_pair(seed: int = 0, nat_a: str = "port-restricted",
                   nat_b: str = "port-restricted", rtt: float = 0.05,
                   predict_ports: bool = True, settle: float = 1.0):
    """One cell of the NAT×NAT traversal matrix: bring up two hosts
    behind the given NAT specs, punch ``ta -> tb``, and report how the
    connection came up."""
    sim = Simulator(seed=seed)
    env = _pair_env(sim, nat_a, nat_b, rtt, predict_ports=predict_ports)
    conn = env.up().connect("ta", "tb")
    if settle > 0:
        sim.run(until=sim.now + settle)
    da, db = env.hosts["ta"].driver, env.hosts["tb"].driver
    payload = {
        "seed": seed,
        "nat_a": nat_a,
        "nat_b": nat_b,
        "direct": bool(conn is not None and not conn.relayed),
        "relayed": bool(conn is not None and conn.relayed),
        "usable": bool(conn is not None and conn.usable),
        "established_at": conn.established_at if conn is not None else None,
        "stride_a": da.alloc_stride,
        "stride_b": db.alloc_stride,
        "expected_direct": expected_direct(nat_a, nat_b),
    }
    return sim, payload


@scenario("ipop_traversal")
def ipop_traversal(seed: int = 0, nat_a: str = "port-restricted",
                   nat_b: str = "port-restricted", rtt: float = 0.05,
                   settle: float = 2.0):
    """The same NAT×NAT cell under the IPOP baseline: two overlay nodes
    bootstrap their ring edge with scripted simultaneous hellos toward
    build-time STUN-discovered endpoints — no allocation inference, no
    predicted-port fan. A cell is *direct* when both sides learned the
    other as a live edge."""
    from repro.baselines.ipop import IpopOverlay
    from repro.net.wan import WanCloud
    from repro.scenarios.builder import make_natted_site

    sim = Simulator(seed=seed)
    cloud = WanCloud(sim, default_latency=rtt / 2.0)
    site_a = make_natted_site(sim, cloud, "ia", "8.3.0.1", nat_type=nat_a,
                              lan_subnet="192.168.101.0/24")
    site_b = make_natted_site(sim, cloud, "ib", "8.3.0.2", nat_type=nat_b,
                              lan_subnet="192.168.102.0/24")
    overlay = IpopOverlay(sim)
    node_a = overlay.add_node(site_a.hosts[0], "10.128.0.1", nat=site_a.nat)
    node_b = overlay.add_node(site_b.hosts[0], "10.128.0.2", nat=site_b.nat)
    sim.run_coro(overlay.build_ring())
    if settle > 0:
        sim.run(until=sim.now + settle)
    direct = (node_b.name in node_a.neighbors
              and node_a.name in node_b.neighbors)
    payload = {
        "seed": seed,
        "nat_a": nat_a,
        "nat_b": nat_b,
        "direct": bool(direct),
    }
    return sim, payload


@scenario("migration_repair")
def migration_repair(seed: int = 0, migration: bool = True,
                     nat_type: str = "port-restricted",
                     pulse_interval: float = 0.5, reboot_at: float = 5.0,
                     horizon: float = 40.0):
    """Reboot one side's NAT under an established tunnel and measure the
    time until the pair is healed. ``migration=True`` heals via
    QUIC-style path validation on the stable connection ID;
    ``migration=False`` is the classic arm — liveness death, then the
    re-punch repair loop — at identical detection/backoff knobs."""
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    for name in ("ma", "mb"):
        env.add_host(name, nat_type=nat_type,
                     pulse_interval=pulse_interval,
                     keepalive_interval=10.0, punch_timeout=5.0,
                     repair_backoff_base=0.5, repair_backoff_cap=8.0,
                     migration=migration)
    env.up().connect("ma", "mb")
    fault_at = sim.now + reboot_at
    plan = FaultPlan(sim, name="traversal-migration")
    plan.at(fault_at, "nat_reboot", nat=env.hosts["ma"].site.nat)
    plan.arm()
    sim.run(until=fault_at + horizon)

    heals = [r for name in ("conn.migrated", "conn.repaired")
             for r in sim.trace.events(name) if r["t"] >= fault_at]
    repair_seconds = ([round(min(r["t"] for r in heals) - fault_at, 6)]
                      if heals else [])
    fwd = env.hosts["ma"].driver.connections.get("mb")
    rev = env.hosts["mb"].driver.connections.get("ma")
    usable = ((fwd is not None and fwd.usable)
              or (rev is not None and rev.usable))
    migrations = sum(1 for r in heals if r["name"] == "conn.migrated")
    payload = {
        "seed": seed,
        "migration": migration,
        "fault_at": fault_at,
        "healed": bool(heals),
        "repair_seconds": repair_seconds,
        "healed_by_migration": migrations > 0,
        "repunches": sum(1 for r in heals if r["name"] == "conn.repaired"),
        "usable": bool(usable),
        "relayed_after": bool((fwd is not None and fwd.relayed)
                              or (rev is not None and rev.relayed)),
    }
    return sim, payload

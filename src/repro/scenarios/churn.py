"""Churn scenario: a WAVNet mesh surviving infrastructure failures.

Builds a full-mesh deployment (multiple rendezvous servers joined into
one CAN overlay), then drives a deterministic fault schedule against it:
a rendezvous-server kill, host-driver crash/restore churn, a NAT reboot
and an access-link flap. With self-healing drivers, the mesh is expected
to converge back — every surviving host re-registered (failed over to a
surviving rendezvous server) and all host pairs re-punched — without
anyone calling ``connect()`` again.

Used by ``tests/test_faults.py`` (acceptance) and
``benchmarks/bench_churn_recovery.py`` (recovery-time distributions).
"""

from __future__ import annotations

from typing import Optional

from repro.exp.spec import scenario
from repro.faults import FaultPlan
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["build_churn_env", "churn_recovery", "mesh_converged",
           "scripted_churn_plan"]


def build_churn_env(
    sim: Simulator,
    n_hosts: int = 4,
    n_rendezvous: int = 2,
    pulse_interval: float = 2.0,
    keepalive_interval: float = 10.0,
    punch_timeout: float = 5.0,
    **host_kwargs,
) -> WavnetEnvironment:
    """Full-mesh WAVNet with fast keepalive/repair knobs, hosts spread
    round-robin across the rendezvous servers. Runs the simulator up to
    the point where the mesh is established."""
    env = WavnetEnvironment(sim, n_rendezvous=n_rendezvous)
    for i in range(n_hosts):
        env.add_host(
            f"h{i}",
            rendezvous_index=i % n_rendezvous,
            pulse_interval=pulse_interval,
            keepalive_interval=keepalive_interval,
            punch_timeout=punch_timeout,
            repair_backoff_base=0.5,
            repair_backoff_cap=8.0,
            **host_kwargs,
        )
    env.up().connect()
    return env


def scripted_churn_plan(
    sim: Simulator,
    env: WavnetEnvironment,
    rendezvous_kill_at: float = 30.0,
    rendezvous_restore_at: Optional[float] = 150.0,
    host_crash_at: Optional[float] = 60.0,
    host_downtime: float = 20.0,
    nat_reboot_at: Optional[float] = 100.0,
    link_flap_at: Optional[float] = 115.0,
    link_down_for: float = 6.0,
) -> FaultPlan:
    """The canonical churn schedule. Times are offsets from ``sim.now``
    at the moment the plan is built (i.e. from the established mesh);
    pass None to skip a fault:

    * ``rendezvous_kill_at``  — crash rendezvous server 0 (the CAN
      bootstrap node); hosts registered there must fail over.
    * ``host_crash_at``       — crash the last host's driver, restore it
      ``host_downtime`` later; peers must re-punch.
    * ``nat_reboot_at``       — power-cycle the first NATed site's box
      (mapping flush: tunnels through it must re-open).
    * ``link_flap_at``        — flap the same site's access link.
    * ``rendezvous_restore_at`` — bring the killed server back (it
      rejoins the CAN through its cached peers).
    """
    plan = FaultPlan(sim, name="churn")
    base = sim.now
    rvz0 = env.rendezvous[0]
    if rendezvous_kill_at is not None:
        plan.at(base + rendezvous_kill_at, "crash",
                component_id=rvz0.component_id)
        if rendezvous_restore_at is not None:
            plan.at(base + rendezvous_restore_at, "restore",
                    component_id=rvz0.component_id)
    if host_crash_at is not None:
        victim = list(env.hosts.values())[-1]
        plan.at(base + host_crash_at, "crash",
                component_id=victim.driver.component_id)
        plan.at(base + host_crash_at + host_downtime, "restore",
                component_id=victim.driver.component_id)
    natted = next((h for h in env.hosts.values() if h.site is not None), None)
    if natted is not None:
        if nat_reboot_at is not None:
            plan.at(base + nat_reboot_at, "nat_reboot", nat=natted.site.nat)
        if link_flap_at is not None:
            plan.at(base + link_flap_at, "link_flap",
                    link=natted.site.access_link, down_for=link_down_for)
    return plan


@scenario("churn_recovery")
def churn_recovery(seed: int = 0, n_hosts: int = 4, n_rendezvous: int = 2,
                   horizon: float = 220.0, ping: bool = True):
    """One seed of the churn-recovery experiment: scripted faults against
    an established mesh, with optional ring traffic so outages register
    as dropped frames. Payload carries the recovery distributions
    ``benchmarks/bench_churn_recovery.py`` aggregates."""
    from repro.net.icmp import Pinger

    sim = Simulator(seed=seed)
    env = build_churn_env(sim, n_hosts=n_hosts, n_rendezvous=n_rendezvous)
    plan = scripted_churn_plan(sim, env).arm()
    if ping:
        # Ring traffic for the whole run: hosts that lose their tunnel
        # drop these pings into ``frames.dropped_outage`` until repair.
        names = list(env.hosts)
        for i, name in enumerate(names):
            nxt = env.hosts[names[(i + 1) % len(names)]]
            pinger = Pinger(env.hosts[name].host.stack, nxt.virtual_ip,
                            interval=1.0, timeout=1.0)
            sim.process(pinger.run(max(int(horizon) - 5, 1)),
                        name=f"churn-ping:{name}")
    sim.run(until=sim.now + horizon)

    repair, failover = [], []
    frames_lost = repairs = failovers = 0
    for name in env.hosts:
        scope = sim.metrics.scope(f"{name}.driver")
        repair.extend(scope.histogram("repair.seconds").values.tolist())
        failover.extend(scope.histogram("rvz.failover_seconds").values.tolist())
        frames_lost += int(scope.value("frames.dropped_outage"))
        repairs += int(scope.value("repair.success"))
        failovers += int(scope.value("rvz.failovers"))
    payload = {
        "seed": seed,
        "faults_injected": len(plan),
        "repairs": repairs,
        "failovers": failovers,
        "repair_seconds": repair,
        "failover_seconds": failover,
        "frames_lost": frames_lost,
        "converged": mesh_converged(env),
    }
    return sim, payload


def mesh_converged(env: WavnetEnvironment) -> bool:
    """True when every pair of running hosts has a usable tunnel in at
    least one direction and every running host is registered with a
    running rendezvous server."""
    running = [h for h in env.hosts.values() if h.driver.running]
    by_ip = {s.ip: s for s in env.rendezvous}
    for wav in running:
        server = by_ip.get(wav.driver.rendezvous_ip)
        if server is None or not server.running:
            return False
        if server.registered(wav.name) < 0:
            return False
    for i, a in enumerate(running):
        for b in running[i + 1:]:
            fwd = a.driver.connections.get(b.name)
            rev = b.driver.connections.get(a.name)
            if not ((fwd is not None and fwd.usable)
                    or (rev is not None and rev.usable)):
                return False
    return True

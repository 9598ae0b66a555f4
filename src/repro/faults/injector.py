"""Fault primitives: the verbs a fault schedule can apply.

Component faults (crash/stop/restore) address lifecycle components by
their registry id (``driver:h0``, ``rendezvous:rvz0``, ``nat:h3.nat``,
``link:h2.access``); network faults (flap, loss burst, partition) take
the :class:`~repro.net.l2.Link` / :class:`~repro.net.wan.WanCloud`
objects directly. Every injection is observable: one ``fault`` trace
event plus a ``faults.injected.<kind>`` counter.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.net.l2 import Link
from repro.net.wan import WanCloud

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies fault primitives to one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.injected = 0

    def _note(self, kind: str, **attrs) -> None:
        self.injected += 1
        self.sim.metrics.counter(f"faults.injected.{kind}").add()
        self.sim.trace.event("fault", kind=kind, **attrs)

    # -- component lifecycle faults -------------------------------------
    def crash(self, component_id: str) -> None:
        """Ungraceful death of any lifecycle component (host driver,
        rendezvous server, NAT box, CAN node, link)."""
        self._note("crash", component=component_id)
        self.sim.components.crash(component_id)

    def stop(self, component_id: str) -> None:
        """Graceful shutdown of a lifecycle component."""
        self._note("stop", component=component_id)
        self.sim.components.stop(component_id)

    def restore(self, component_id: str) -> None:
        """Bring a crashed/stopped component back up."""
        self._note("restore", component=component_id)
        self.sim.components.restore(component_id)

    # -- link faults ----------------------------------------------------
    def link_down(self, link: Link) -> None:
        self._note("link_down", link=link.name)
        link.admin_down()

    def link_up(self, link: Link) -> None:
        self._note("link_up", link=link.name)
        link.admin_up()

    def link_flap(self, link: Link, down_for: float) -> None:
        """Take a link down now and bring it back after ``down_for``."""
        self._note("link_flap", link=link.name, down_for=down_for)
        link.admin_down()
        self.sim.call_in(down_for, link.admin_up)

    def loss_burst(self, link: Link, loss: float, duration: float) -> None:
        """Raise a link's drop probability to ``loss`` for ``duration``
        seconds, then restore the previous value."""
        prior = link.ab.loss
        self._note("loss_burst", link=link.name, loss=loss, duration=duration)
        link.set_loss(loss)
        self.sim.call_in(duration, partial(link.set_loss, prior))

    # -- WAN faults -----------------------------------------------------
    def partition(self, cloud: WanCloud, group_a, group_b,
                  duration: Optional[float] = None) -> None:
        """Partition two site groups; heals after ``duration`` if given."""
        self._note("partition", cloud=cloud.name,
                   a=sorted(group_a), b=sorted(group_b))
        cloud.partition(group_a, group_b)
        if duration is not None:
            self.sim.call_in(duration, partial(cloud.heal, tuple(group_a), tuple(group_b)))

    def heal(self, cloud: WanCloud, group_a=None, group_b=None) -> None:
        self._note("heal", cloud=cloud.name)
        cloud.heal(group_a, group_b)

    # -- NAT faults -----------------------------------------------------
    def nat_reboot(self, nat) -> None:
        """Power-cycle a NAT box: every mapping table is flushed."""
        self._note("nat_reboot", nat=nat.name)
        nat.reboot()

    # -- table-resident endpoint faults ---------------------------------
    # Churn at 10^5-10^6 endpoints operates on HostTable rows directly:
    # no object stack exists for an idle endpoint.
    def endpoint_down(self, table, names) -> int:
        """Endpoints go dark: registrations drop immediately (their rows
        and directory state survive, so a later reconnect needs no side
        channel). Returns how many were registered."""
        names = [names] if isinstance(names, str) else list(names)
        downed = table.mark_down(names)
        self._note("endpoint_down", count=len(names), table_resident=downed)
        return downed

    def endpoint_reconnect(self, table, names, owner: int = -1,
                           region: int = -1) -> int:
        """Table-resident endpoints re-register from their surviving row
        state (the storm scenario drives real re-registration RPCs; this
        verb is the cheap local flavor for schedules that only need the
        directory effect)."""
        names = [names] if isinstance(names, str) else list(names)
        count = 0
        now = self.sim.now
        for name in names:
            host_id = table.lookup(name)
            if host_id < 0:
                continue
            table.flags[host_id] |= 1  # FLAG_REGISTERED
            table.generation[host_id] += 1
            table.owner[host_id] = owner
            if region >= 0:
                table.region[host_id] = region
            table.last_seen[host_id] = now
            count += 1
        self._note("endpoint_reconnect", count=count)
        return count

    def regional_outage(self, table, region: int) -> list:
        """Every registered endpoint in a region goes dark at once — the
        precursor to a mass-reconnect registration storm. Returns the
        affected names (the storm re-registers exactly these)."""
        names = table.names_in_region(region)
        self.endpoint_down(table, names)
        self._note("regional_outage", region=region, endpoints=len(names))
        return names

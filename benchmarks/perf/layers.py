"""Per-layer attribution: which ``repro`` module is which layer, how a
``cProfile`` run folds into layers, and the exact counters read from the
simulator a workload returns.

The tracing is done from here, around the calls into the program — no
span lives inside ``src/``. ``cProfile`` charges every call but not the
work inside native code, so it inflates small functions; its shares
find candidates, the untraced ``wall_s`` decides (see README).
"""

from __future__ import annotations

import cProfile
import functools
import os

import repro
from workloads import metric_total

# repro module (or package) -> layer; the longest dotted prefix wins and
# every module not named here is `other`.
LAYER_OF = {
    "sim.engine": "sim.engine", "sim.queues": "sim.engine",
    "sim.lifecycle": "sim.engine", "sim.rng": "sim.engine",
    "net.l2": "net.l2",
    "net.wan": "net.wan",
    "net.packet": "net.packet", "net.addresses": "net.packet",
    "net.stack": "net.stack", "net.udp": "net.stack",
    "net.icmp": "net.stack", "net.dhcp": "net.stack",
    "net.tcp": "net.tcp",
    "net.cc": "net.cc",
    "net.fluid": "net.fluid",
    "nat": "nat",
    "stun": "stun",
    "core.tap": "core.tap",
    "core.driver": "core.driver", "core.switch": "core.driver",
    "core.assembler": "core.driver",
    "core.connection": "core.connection",
    "core.hoststate": "core.hoststate",
    "overlay.rpc": "overlay.rpc",
    "overlay.rendezvous": "overlay.rendezvous",
    "overlay.fleet": "overlay.rendezvous",
    "overlay.resources": "overlay.rendezvous",
    "overlay.can": "overlay.can",
    "overlay.space": "overlay.space",
    "faults": "faults",
    "obs": "obs",
    "apps": "apps",
    "scenarios": "scenarios", "exp": "scenarios",
}
OTHER = "other"
LAYERS = sorted(set(LAYER_OF.values())) + [OTHER]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@functools.cache
def layer_of_file(filename: str) -> str:
    """Layer of the module defined in ``filename`` (`other` outside repro)."""
    if not filename.startswith(_PACKAGE_DIR):
        return OTHER
    module = filename[len(_PACKAGE_DIR):-len(".py")].replace(os.sep, ".")
    while module:
        layer = LAYER_OF.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER


def profile(fn):
    """Run ``fn()`` under cProfile; returns (result, raw profiler entries)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, profiler.getstats()


def fold(stats, top: int = 20) -> dict:
    """Fold raw cProfile entries into layers.

    ``self_s``: self time of the layer's functions, plus the time of the
    builtins (C functions, numpy included) they call, charged through the
    profiler's caller edges; builtin time with no Python caller goes to
    `other`. ``calls``: calls into the layer from a function of another
    layer — an exact count. Shares are ``self_s`` over the sum of all
    ``self_s``, so they add up to 1.
    """
    def layer(code) -> str:
        return layer_of_file(code.co_filename)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    functions = []
    builtin_total = builtin_charged = 0.0
    for entry in stats:
        if isinstance(entry.code, str):  # a builtin: charged to its callers
            builtin_total += entry.inlinetime
            continue
        here = layer(entry.code)
        own = entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                own += sub.inlinetime
                builtin_charged += sub.inlinetime
            elif layer(sub.code) != here:
                calls[layer(sub.code)] += sub.callcount
        self_s[here] += own
        functions.append((own, here, entry))
    self_s[OTHER] += max(builtin_total - builtin_charged, 0.0)
    total = sum(self_s.values())
    functions.sort(key=lambda f: f[0], reverse=True)
    return {
        "total_self_s": total,
        "layers": {name: {"calls": calls[name], "self_s": self_s[name],
                          "share": self_s[name] / total if total else 0.0}
                   for name in LAYERS},
        "top_functions": [
            {"layer": here, "function": entry.code.co_name,
             "where": f"{os.path.relpath(entry.code.co_filename)}:"
                      f"{entry.code.co_firstlineno}",
             "calls": entry.callcount, "self_s": own}
            for own, here, entry in functions[:top]],
    }


def counters(it) -> dict:
    """Exact per-layer counters of one untraced iteration, read from the
    metrics registry, the link components and the reachable TCP layers.

    Connections a host has already closed are gone from
    ``tcp.connections``, so ``net.tcp.retransmits`` covers the
    connections still open when the workload ends.
    """
    sim, payload = it.sim, it.payload
    total = functools.partial(metric_total, sim)
    links = sim.components.find(kind="link").values()
    events = sim.events_dispatched
    attempts = total("*.driver.repair.attempts")
    return {
        "sim.engine.events": events,
        "sim.engine.us_per_event": it.wall_s / events * 1e6 if events else 0.0,
        "net.l2.queue_drops": sum(link.ab.drops + link.ba.drops for link in links),
        "net.tcp.segments_sent": sum(h.tcp.segments_sent for h in it.hosts),
        "net.tcp.retransmits": sum(c.retransmits for h in it.hosts
                                   for c in h.tcp.connections.values()),
        "nat.mappings_allocated": total("*.mappings.allocated"),
        "core.driver.frames_tx": total("*.driver.frames.tx"),
        "core.driver.repair_attempts": attempts,
        # no repair attempted: nothing failed
        "core.driver.repair_success_frac": (
            total("*.driver.repair.success") / attempts if attempts else 1.0),
        "core.connection.punch_tx": total("*.driver.punch.tx"),
        "core.connection.pulse_tx": total("*.driver.pulse.tx"),
        "overlay.rpc.requests": total("*.rpc.calls"),
        "overlay.rpc.retries": total("*.rpc.retries"),
        "overlay.rpc.timeouts": total("*.rpc.timeouts"),
        "overlay.rendezvous.connects_brokered": total("*.rvz.connects.brokered"),
        "overlay.rendezvous.admission_rejected": total("*.rvz.admission.rejected"),
        "overlay.rendezvous.reconnect_ops_per_s": payload.get(
            "reconnect_ops_per_sec", 0.0),
        "overlay.can.splits": total("*.can.splits"),
        "overlay.can.merges": total("*.can.merges"),
        "core.hoststate.rows": sim.metrics.value("hosttable.rows"),
        "core.hoststate.bytes_per_endpoint": payload.get("bytes_per_endpoint", 0.0),
        "net.fluid.flows_completed": sim.metrics.value("fluid.flows.completed"),
        "faults.injected": len(sim.trace.events("fault")),
        "obs.n_metrics": len(sim.metrics),
        "obs.n_trace_records": len(sim.trace),
    }

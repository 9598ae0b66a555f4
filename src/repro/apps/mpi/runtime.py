"""MPICH-over-TCP stand-in.

Ranks live on hosts (usually VM guests), joined by a full mesh of TCP
connections carrying tagged messages. Send is buffered-eager (blocks
only on TCP backpressure, like MPICH small/medium messages); recv blocks
until the matching (src, tag) message is fully delivered. Computation is
modeled time: ``compute(flops)`` sleeps ``flops / (base_flops *
cpu_factor)`` — communication, in contrast, is fully simulated through
the network stack, which is where all the locality effects of Figs 11
and 14 come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.sim.queues import Store

__all__ = ["MpiContext", "MpiJob"]

MPI_PORT_BASE = 14000


@dataclass(frozen=True)
class _MpiMsg:
    src: int
    dst: int
    tag: int
    nbytes: int


class MpiContext:
    """Per-rank handle passed to the program generator."""

    def __init__(self, job: "MpiJob", rank: int) -> None:
        self.job = job
        self.rank = rank
        self.size = job.size
        self.host = job.hosts[rank]
        self.sim = job.sim
        self._inboxes: dict[tuple[int, int], Store] = {}

    def _inbox(self, src: int, tag: int) -> Store:
        key = (src, tag)
        box = self._inboxes.get(key)
        if box is None:
            box = Store(self.sim)
            self._inboxes[key] = box
        return box

    # -- point to point ------------------------------------------------------
    def send(self, dst: int, nbytes: int, tag: int = 0):
        """Process: buffered-eager send of ``nbytes`` to rank ``dst``."""
        if dst == self.rank:
            raise ValueError("self-send")
        conn = self.job.conn(self.rank, dst)
        payload = max(nbytes, 1)
        yield conn.send(payload, obj=_MpiMsg(self.rank, dst, tag, payload))

    def recv(self, src: int, tag: int = 0):
        """Process: blocks until the matching message has fully arrived;
        returns its byte count."""
        msg = yield self._inbox(src, tag).get()
        return msg.nbytes

    def sendrecv(self, peer: int, nbytes: int, tag: int = 0):
        """Process: simultaneous exchange with ``peer`` (halo swaps)."""
        send_proc = self.sim.process(self.send(peer, nbytes, tag))
        got = yield from self.recv(peer, tag)
        yield send_proc
        return got

    # -- collectives ------------------------------------------------------------
    def barrier(self, tag: int = -1):
        """Process: flat-tree barrier through rank 0."""
        if self.rank == 0:
            for src in range(1, self.size):
                yield from self.recv(src, tag)
            for dst in range(1, self.size):
                yield from self.send(dst, 4, tag)
        else:
            yield from self.send(0, 4, tag)
            yield from self.recv(0, tag)

    def gather_to_root(self, nbytes: int, tag: int = -2):
        """Process: every rank ships ``nbytes`` to rank 0."""
        if self.rank == 0:
            total = 0
            for src in range(1, self.size):
                total += yield from self.recv(src, tag)
            return total
        yield from self.send(0, nbytes, tag)
        return nbytes

    def alltoall(self, bytes_per_peer: int, tag: int):
        """Process: pairwise exchange with every other rank."""
        sends = [self.sim.process(self.send(dst, bytes_per_peer, tag))
                 for dst in range(self.size) if dst != self.rank]
        for src in range(self.size):
            if src != self.rank:
                yield from self.recv(src, tag)
        for proc in sends:
            yield proc

    # -- modeled computation -------------------------------------------------------
    def compute(self, flops: float):
        """Process: spend CPU time for ``flops`` floating-point operations."""
        rate = self.job.base_flops * self.host.cpu_factor
        yield self.sim.timeout(flops / rate)


class MpiJob:
    """One MPI program across ``len(hosts)`` ranks."""

    def __init__(self, hosts: list[Host], ips: list[IPv4Address],
                 program: Callable, base_flops: float = 2e9,
                 port: Optional[int] = None) -> None:
        """``program(ctx)`` is a generator run once per rank; ``ips[r]``
        is the address rank ``r`` listens on (a VM guest IP or a WAVNet
        virtual IP)."""
        if len(hosts) != len(ips):
            raise ValueError("hosts/ips length mismatch")
        if len(hosts) < 2:
            raise ValueError("need at least 2 ranks")
        self.hosts = hosts
        self.ips = [IPv4Address(ip) for ip in ips]
        self.size = len(hosts)
        self.sim = hosts[0].sim
        self.program = program
        self.base_flops = base_flops
        self.port = port if port is not None else MPI_PORT_BASE
        self.contexts = [MpiContext(self, r) for r in range(self.size)]
        self._conns: dict[tuple[int, int], object] = {}
        self.elapsed: Optional[float] = None

    def conn(self, a: int, b: int):
        conn = self._conns.get((a, b))
        if conn is None:
            raise RuntimeError(f"no connection {a}->{b}; call setup() first")
        return conn

    # -- wiring ------------------------------------------------------------------
    def setup(self):
        """Process: listeners + full-mesh connection establishment +
        per-connection reader processes."""
        sim = self.sim
        listeners = {}
        accepted: dict[int, dict] = {r: {} for r in range(self.size)}
        for r, host in enumerate(self.hosts):
            listeners[r] = host.tcp.listen(self.port + r)
            sim.process(self._acceptor(r, listeners[r], accepted[r]),
                        name=f"mpi-accept:{r}")
        # Rank a dials every rank b > a.
        pending = []
        for a in range(self.size):
            for b in range(a + 1, self.size):
                conn = self.hosts[a].tcp.connect(self.ips[b], self.port + b)
                self._conns[(a, b)] = conn
                pending.append((a, b, conn))
        for a, b, conn in pending:
            yield conn.wait_established()
        # Wait until the passive sides have been matched up.
        for r in range(self.size):
            while len(accepted[r]) < r:
                yield sim.timeout(0.05)
            for peer, conn in accepted[r].items():
                self._conns[(r, peer)] = conn
        for (a, b), conn in self._conns.items():
            sim.process(self._reader(a, conn), name=f"mpi-rx:{a}<-{b}")

    def _acceptor(self, rank: int, listener, accepted: dict):
        while len(accepted) < rank:  # ranks below `rank` dial in
            conn = yield listener.accept()
            peer = self._peer_of(rank, conn)
            accepted[peer] = conn

    def _peer_of(self, rank: int, conn) -> int:
        for r, ip in enumerate(self.ips):
            if ip == conn.remote_ip:
                return r
        raise RuntimeError(f"unknown MPI peer {conn.remote_ip}")

    def _reader(self, rank: int, conn):
        ctx = self.contexts[rank]
        while True:
            chunk = yield conn.recv()
            if chunk is None:
                return
            conn.app_read(chunk.nbytes)
            for obj in chunk.objs:
                if isinstance(obj, _MpiMsg):
                    ctx._inbox(obj.src, obj.tag).put_nowait(obj)

    # -- execution ----------------------------------------------------------------
    def run(self):
        """Process: setup + run all ranks; returns elapsed seconds."""
        sim = self.sim
        yield sim.process(self.setup())
        t0 = sim.now
        rank_procs = [sim.process(self.program(ctx), name=f"mpi-rank:{ctx.rank}")
                      for ctx in self.contexts]
        for proc in rank_procs:
            yield proc
        self.elapsed = sim.now - t0
        return self.elapsed

"""Cycle-driven router-level mesh model.

The default simulator uses the link-reservation timing model
(:class:`repro.noc.mesh.Network`), which approximates contention without
simulating routers.  This module provides the detailed alternative: an
input-queued, dimension-order-routed mesh of 5-port routers with
round-robin output arbitration and credit-free bounded input queues.
It serves two purposes:

* validating the reservation model (the unit tests drive both with the
  same traffic and bound their divergence), and
* standalone network experiments (saturation sweeps, hotspot studies)
  without dragging in the processor model.

Single-flit packets, as in the TFlex operand network (an operand plus
routing metadata fits one flit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.noc.mesh import Topology


#: Port indices: local injection/ejection plus the four directions.
LOCAL, NORTH, SOUTH, EAST, WEST = range(5)
_OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}


@dataclass
class Packet:
    """One single-flit packet."""

    src: int
    dst: int
    payload: object = None
    injected_at: int = 0
    delivered_at: Optional[int] = None
    hops: int = 0


@dataclass
class RouterStats:
    delivered: int = 0
    total_latency: int = 0
    total_hops: int = 0
    stalls: int = 0          # arbitration losses

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0


class _Router:
    """One 5-port input-queued router."""

    def __init__(self, node: int, topology: Topology, queue_depth: int) -> None:
        self.node = node
        self.topology = topology
        self.queue_depth = queue_depth
        self.inputs: list[deque[Packet]] = [deque() for __ in range(5)]
        self._rr = 0    # round-robin arbitration pointer

    def output_port(self, packet: Packet) -> int:
        """Dimension-order (X then Y) output port for a packet here."""
        x, y = self.topology.coord(self.node)
        dx, dy = self.topology.coord(packet.dst)
        if dx > x:
            return EAST
        if dx < x:
            return WEST
        if dy > y:
            return SOUTH
        if dy < y:
            return NORTH
        return LOCAL

    def has_room(self, port: int) -> bool:
        return len(self.inputs[port]) < self.queue_depth


class RouterNetwork:
    """A mesh of routers advanced one cycle at a time."""

    def __init__(self, topology: Topology, queue_depth: int = 4,
                 on_deliver: Optional[Callable[[Packet, int], None]] = None) -> None:
        self.topology = topology
        self.queue_depth = queue_depth
        self.on_deliver = on_deliver
        self.routers = [_Router(n, topology, queue_depth)
                        for n in range(topology.num_nodes)]
        self.stats = RouterStats()
        self.cycle = 0
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------

    def inject(self, src: int, dst: int, payload: object = None) -> bool:
        """Offer a packet to the source router; False if it is full."""
        router = self.routers[src]
        if not router.has_room(LOCAL):
            return False
        packet = Packet(src=src, dst=dst, payload=payload,
                        injected_at=self.cycle)
        router.inputs[LOCAL].append(packet)
        self._in_flight += 1
        return True

    def step(self) -> list[Packet]:
        """Advance one cycle; returns packets delivered this cycle.

        Each router arbitrates its output ports among input queues
        round-robin; one packet per output port per cycle; a winning
        packet moves to the neighbour's input queue (or ejects).
        """
        self.cycle += 1
        moves: list[tuple[_Router, int, _Router, int]] = []   # (src,port, dst,port)
        ejected: list[Packet] = []

        for router in self.routers:
            # Collect head packets wanting each output port.
            claims: dict[int, list[int]] = {}
            for port in range(5):
                queue = router.inputs[port]
                if queue:
                    out = router.output_port(queue[0])
                    claims.setdefault(out, []).append(port)
            for out, claimants in claims.items():
                # Round-robin among claimant input ports.
                claimants.sort(key=lambda p: (p - router._rr) % 5)
                winner = claimants[0]
                self.stats.stalls += len(claimants) - 1
                if out == LOCAL:
                    packet = router.inputs[winner].popleft()
                    packet.delivered_at = self.cycle
                    packet.hops += 0
                    ejected.append(packet)
                    continue
                neighbour = self._neighbour(router.node, out)
                dest = self.routers[neighbour]
                in_port = _OPPOSITE[out]
                if dest.has_room(in_port):
                    moves.append((router, winner, dest, in_port))
                else:
                    self.stats.stalls += 1
            router._rr = (router._rr + 1) % 5

        for src_router, src_port, dst_router, dst_port in moves:
            packet = src_router.inputs[src_port].popleft()
            packet.hops += 1
            dst_router.inputs[dst_port].append(packet)

        for packet in ejected:
            self._in_flight -= 1
            self.stats.delivered += 1
            self.stats.total_latency += packet.delivered_at - packet.injected_at
            self.stats.total_hops += packet.hops
            if self.on_deliver is not None:
                self.on_deliver(packet, self.cycle)
        return ejected

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Step until no packets remain; returns cycles taken."""
        start = self.cycle
        while self._in_flight:
            if self.cycle - start > max_cycles:
                raise RuntimeError("router network did not drain")
            self.step()
        return self.cycle - start

    def _neighbour(self, node: int, port: int) -> int:
        x, y = self.topology.coord(node)
        if port == EAST:
            return self.topology.node(x + 1, y)
        if port == WEST:
            return self.topology.node(x - 1, y)
        if port == SOUTH:
            return self.topology.node(x, y + 1)
        return self.topology.node(x, y - 1)

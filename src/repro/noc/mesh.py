"""Two-dimensional mesh interconnect with per-link bandwidth arbitration.

TFlex cores are connected by 2D meshes (paper section 4.4): a control
network for fetch/commit/prediction traffic and an operand network (OPN)
for dataflow operands, with a single-cycle per-hop latency.  TFlex
doubles the operand network bandwidth relative to TRIPS (section 5),
modelled here as two channels per link.

The timing model is *link reservation*: a message traversing its
dimension-order (X-then-Y) path claims one channel of each link for
``hop_latency`` cycles (the full traversal of that hop; links are not
pipelined), at the earliest cycle the channel is free after the message
arrives at that hop.  This captures zero-load latency exactly (one cycle
per hop) and serializes competing messages on shared links, while
remaining cheap enough to simulate 32 cores in Python.  Unbounded router
buffering is assumed (no head-of-line blocking); DESIGN.md records this
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """A ``width`` x ``height`` grid of nodes, row-major numbered.

    Coordinates, pairwise distances, and dimension-order routes are pure
    functions of the (immutable) grid shape, so they are precomputed at
    construction (routes lazily, memoized on first use) — the network
    timing model queries them on every message.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        n = self.width * self.height
        coords = tuple((i % self.width, i // self.width) for i in range(n))
        dist = [0] * (n * n)
        for a, (ax, ay) in enumerate(coords):
            base = a * n
            for b, (bx, by) in enumerate(coords):
                dist[base + b] = abs(ax - bx) + abs(ay - by)
        # A frozen dataclass blocks normal assignment; these caches are
        # derived state, invisible to eq/repr/hash.
        object.__setattr__(self, "_num_nodes", n)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_dist", tuple(dist))
        object.__setattr__(self, "_routes", {})

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def coord(self, node: int) -> tuple[int, int]:
        """(x, y) coordinate of a node index."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} outside {self.width}x{self.height} mesh")
        return self._coords[node]

    def node(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def distance(self, a: int, b: int) -> int:
        """Manhattan hop count between two nodes."""
        n = self._num_nodes
        if 0 <= a < n and 0 <= b < n:
            return self._dist[a * n + b]
        bad = a if not 0 <= a < n else b
        raise ValueError(f"node {bad} outside {self.width}x{self.height} mesh")

    def routes_cached(self, src: int, dst: int) -> tuple[tuple[int, int], ...]:
        """Memoized dimension-order (X then Y) path, each link
        ``(from_node, to_node)`` for adjacent nodes (a shared tuple — do
        not mutate)."""
        key = src * self._num_nodes + dst
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        links = []
        x, y = self.coord(src)
        dx, dy = self.coord(dst)
        while x != dx:
            nx = x + (1 if dx > x else -1)
            links.append((self.node(x, y), self.node(nx, y)))
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            links.append((self.node(x, y), self.node(x, ny)))
            y = ny
        self._routes[key] = result = tuple(links)
        return result


@dataclass
class NetworkStats:
    """Aggregate traffic statistics for one network."""

    messages: int = 0
    hops: int = 0
    total_latency: int = 0
    contention_cycles: int = 0
    local_deliveries: int = 0

    def to_metrics(self, metrics, **labels) -> None:
        """Export into a :class:`repro.obs.MetricsRegistry`.

        Gauges, not counters: the stats are already cumulative and a
        system may flush them after every ``run()`` (back-to-back runs),
        so the latest flush must overwrite, not double-count.
        """
        metrics.set_gauge("noc.messages", self.messages, **labels)
        metrics.set_gauge("noc.hops", self.hops, **labels)
        metrics.set_gauge("noc.total_latency", self.total_latency, **labels)
        metrics.set_gauge("noc.contention_cycles", self.contention_cycles,
                          **labels)
        metrics.set_gauge("noc.local_deliveries", self.local_deliveries,
                          **labels)


class Network:
    """Link-reservation mesh network.

    Args:
        topology: Grid shape.
        channels: Independent channels per directed link (bandwidth).
        hop_latency: Cycles per hop at zero load.
        name: For stats reporting.
        profiler: Optional :class:`repro.obs.PhaseProfiler`; when
            enabled, time spent routing/reserving is charged to the
            ``noc`` phase.
    """

    def __init__(self, topology: Topology, channels: int = 1,
                 hop_latency: int = 1, name: str = "net",
                 profiler=None) -> None:
        if channels < 1 or hop_latency < 1:
            raise ValueError("channels and hop_latency must be >= 1")
        self.topology = topology
        self._num_nodes = topology.num_nodes
        self.channels = channels
        self.hop_latency = hop_latency
        self.name = name
        #: Charges :meth:`delay` to the ``noc`` phase; kept only when
        #: enabled at construction.
        self.profiler = (profiler if profiler is not None and profiler.enabled
                         else None)
        self.stats = NetworkStats()
        # Directed link -> per-channel next-free cycle.
        self._free: dict[tuple[int, int], list[int]] = {}
        # ``src * num_nodes + dst`` -> those lists along the
        # dimension-order path, resolved on the pair's first message.
        self._routes: dict[int, tuple[list[int], ...]] = {}
        # Directed link -> extra traversal cycles (fault injection).
        # Consulted only by ``_delay_degraded``, which replaces
        # ``_delay`` when the first degradation is installed.
        self._degraded: dict[tuple[int, int], int] = {}
        if self.profiler is not None:
            self._bind(self._delay)

    def _bind(self, walk) -> None:
        """Shadow the class-level :meth:`delay` with ``walk`` on this
        instance, charged to the ``noc`` phase when the profiler was
        enabled at construction.  Only a profiled or degraded network
        stores such a bound method of itself, and with it a reference
        cycle."""
        self.delay = (walk if self.profiler is None
                      else self.profiler.wrap("noc", walk))

    def _route(self, src: int, dst: int) -> tuple[list[int], ...]:
        """The channel lists along a path, resolved on first use."""
        key = src * self._num_nodes + dst
        route = self._routes.get(key)
        if route is None:
            self._routes[key] = route = tuple(
                self._free.setdefault(link, [0] * self.channels)
                for link in self.topology.routes_cached(src, dst))
        return route

    def _delay(self, src: int, dst: int, now: int) -> int:
        stats = self.stats
        if src == dst:
            stats.local_deliveries += 1
            return now
        t = now
        hop_latency = self.hop_latency
        channels = self.channels
        route = (self._routes.get(src * self._num_nodes + dst)
                 or self._route(src, dst))
        for free in route:
            # Pick the channel available soonest (lowest index on a
            # tie); the two shapes that exist — control (1) and operand
            # network (2) — skip the general scan.
            if channels == 1:
                best = 0
            elif channels == 2:
                best = free[1] < free[0]
            else:
                best = free.index(min(free))
            # The message occupies the channel for the full hop traversal
            # (links are not pipelined): the next message over this link
            # cannot start before this one has left it.
            ready = free[best]
            t = (ready if ready > t else t) + hop_latency
            free[best] = t
        stats.messages += 1
        stats.hops += len(route)
        stats.total_latency += t - now
        # Every cycle beyond the zero-load traversal was spent waiting.
        stats.contention_cycles += t - now - len(route) * hop_latency
        return t

    #: The arrival cycle of a message injected at ``now``, reserving
    #: link bandwidth along the dimension-order path (so repeated calls
    #: model contention); ``src == dst`` is free.  :meth:`_bind`
    #: shadows it per instance.
    delay = _delay

    def degrade_link(self, link: tuple[int, int], extra: int) -> None:
        """Permanently add ``extra`` cycles to one directed link's
        traversal (a marginal wire or router surviving in a degraded
        mode).  Repeated calls on the same link accumulate.

        This is the fault-injection seam: it rebinds :meth:`delay` to
        the degraded walk, so a fault-free network never looks at
        ``_degraded`` — bit-identical timing with zero hot-path branches.
        """
        if extra < 1:
            raise ValueError("extra link latency must be >= 1")
        src, dst = link
        if self.topology.distance(src, dst) != 1:
            raise ValueError(
                f"({src},{dst}) is not a link: nodes are not mesh-adjacent")
        self._degraded[(src, dst)] = self._degraded.get((src, dst), 0) + extra
        self._bind(self._delay_degraded)

    def _delay_degraded(self, src: int, dst: int, now: int) -> int:
        """The reservation walk of ``_delay`` with per-link extra
        latency; installed over it by :meth:`degrade_link`."""
        stats = self.stats
        if src == dst:
            stats.local_deliveries += 1
            return now
        t = now
        path = self.topology.routes_cached(src, dst)
        for link, free in zip(path, self._route(src, dst)):
            best = free.index(min(free))
            start = t if free[best] <= t else free[best]
            stats.contention_cycles += start - t
            t = start + self.hop_latency + self._degraded.get(link, 0)
            free[best] = t
        stats.messages += 1
        stats.hops += len(path)
        stats.total_latency += t - now
        return t

    def zero_load_delay(self, src: int, dst: int) -> int:
        """Latency without contention (no reservation made)."""
        return self.topology.distance(src, dst) * self.hop_latency

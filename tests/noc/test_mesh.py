"""Unit tests for the 2D mesh topology and link-reservation network."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import Network, Topology


class TestTopology:
    def test_coord_roundtrip(self):
        topo = Topology(4, 8)
        for node in range(topo.num_nodes):
            x, y = topo.coord(node)
            assert topo.node(x, y) == node

    def test_bad_node_rejected(self):
        topo = Topology(4, 8)
        with pytest.raises(ValueError):
            topo.coord(32)
        with pytest.raises(ValueError):
            topo.node(4, 0)

    def test_distance_examples(self):
        topo = Topology(4, 8)
        assert topo.distance(0, 0) == 0
        assert topo.distance(0, 3) == 3          # same row
        assert topo.distance(0, 4) == 1          # one row down
        assert topo.distance(0, 31) == 3 + 7     # opposite corner

    @given(st.integers(0, 31), st.integers(0, 31))
    def test_distance_symmetric(self, a, b):
        topo = Topology(4, 8)
        assert topo.distance(a, b) == topo.distance(b, a)

    @given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
    def test_triangle_inequality(self, a, b, c):
        topo = Topology(4, 8)
        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)

    @given(st.integers(0, 31), st.integers(0, 31))
    def test_route_length_is_distance(self, a, b):
        topo = Topology(4, 8)
        links = topo.routes_cached(a, b)
        assert len(links) == topo.distance(a, b)

    @given(st.integers(0, 31), st.integers(0, 31))
    def test_route_is_connected(self, a, b):
        topo = Topology(4, 8)
        node = a
        for src, dst in topo.routes_cached(a, b):
            assert src == node
            assert topo.distance(src, dst) == 1
            node = dst
        assert node == b


class TestNetwork:
    def test_zero_load_latency(self):
        net = Network(Topology(4, 8), channels=1)
        assert net.delay(0, 1, now=100) == 101
        assert net.delay(0, 5, now=200) == 202   # 2 hops

    def test_local_delivery_free(self):
        net = Network(Topology(4, 8))
        assert net.delay(3, 3, now=50) == 50
        assert net.stats.local_deliveries == 1
        assert net.stats.messages == 0

    def test_contention_serializes(self):
        net = Network(Topology(4, 1), channels=1)
        # Two messages over the same link in the same cycle: the second
        # waits one cycle for the channel.
        first = net.delay(0, 1, now=10)
        second = net.delay(0, 1, now=10)
        assert first == 11
        assert second == 12
        assert net.stats.contention_cycles == 1

    def test_two_channels_avoid_contention(self):
        net = Network(Topology(4, 1), channels=2)
        assert net.delay(0, 1, now=10) == 11
        assert net.delay(0, 1, now=10) == 11
        assert net.stats.contention_cycles == 0
        # A third message in the same cycle must wait.
        assert net.delay(0, 1, now=10) == 12

    def test_disjoint_paths_no_interference(self):
        net = Network(Topology(4, 4), channels=1)
        a = net.delay(0, 1, now=5)
        b = net.delay(8, 9, now=5)
        assert a == 6 and b == 6

    def test_hop_latency_scales(self):
        net = Network(Topology(4, 8), hop_latency=2)
        assert net.delay(0, 3, now=0) == 6

    def test_hop_latency_occupies_link(self):
        """A multi-cycle hop holds its channel for the full traversal:
        two messages over one link with hop_latency=2 serialize by two
        cycles, not one (regression: the reservation used to be a single
        cycle, overstating bandwidth)."""
        net = Network(Topology(4, 1), channels=1, hop_latency=2)
        assert net.delay(0, 1, now=10) == 12     # link busy cycles 10-11
        assert net.delay(0, 1, now=10) == 14     # waits for cycle 12
        assert net.stats.contention_cycles == 2

    def test_hop_latency_occupancy_downstream(self):
        """Occupancy applies on every hop of a longer path."""
        net = Network(Topology(4, 1), channels=1, hop_latency=3)
        assert net.delay(0, 2, now=0) == 6       # 2 hops x 3 cycles
        # Second message: first link free at 3, second link free at 6.
        assert net.delay(0, 2, now=0) == 9

    def test_stats_accumulate(self):
        net = Network(Topology(4, 8))
        net.delay(0, 3, now=0)
        net.delay(3, 0, now=10)
        assert net.stats.messages == 2
        assert net.stats.hops == 6
        assert net.stats.total_latency / net.stats.messages == 3.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Network(Topology(2, 2), channels=0)

    @given(st.integers(0, 31), st.integers(0, 31),
           st.integers(min_value=0, max_value=1000))
    def test_delay_never_beats_zero_load(self, src, dst, now):
        net = Network(Topology(4, 8), channels=2)
        arrival = net.delay(src, dst, now)
        assert arrival >= now + net.zero_load_delay(src, dst)

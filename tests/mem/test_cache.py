"""Unit tests for the generic cache bank and the NUCA L2 + directory."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.cache import CacheBank, LineState
from repro.mem.dram import Dram
from repro.mem.l2 import L2System
from repro.noc import Topology


class TestCacheBank:
    def make(self, size=1024, assoc=2, line=64):
        return CacheBank(size, assoc, line, name="t")

    def test_geometry(self):
        bank = self.make()
        assert bank.num_sets == 8

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheBank(100, 2, 64)
        with pytest.raises(ValueError):
            CacheBank(1024, 2, 48)     # non power-of-two line

    def test_miss_then_hit(self):
        bank = self.make()
        assert not bank.access(0, 0x1000)
        bank.fill(0, 0x1000)
        assert bank.access(0, 0x1000)
        assert bank.access(0, 0x103F)      # same line
        assert not bank.access(0, 0x1040)  # next line
        assert bank.stats.reads == 4
        assert bank.stats.read_misses == 2

    def test_contexts_do_not_alias(self):
        bank = self.make()
        bank.fill(0, 0x1000)
        assert bank.probe(1, 0x1000) is None
        assert not bank.access(1, 0x1000)

    def test_lru_eviction(self):
        bank = self.make(size=256, assoc=2, line=64)  # 2 sets
        # Set 0 holds lines 0x000, 0x080, 0x100... (stride 2*64)
        bank.fill(0, 0x000)
        bank.fill(0, 0x080)
        bank.access(0, 0x000)              # make 0x080 the LRU
        victim = bank.fill(0, 0x100)
        assert victim == (0, 0x080)
        assert bank.probe(0, 0x000) is not None

    def test_dirty_eviction_counts_writeback(self):
        bank = self.make(size=128, assoc=1, line=64)
        bank.fill(0, 0x000, state=LineState.MODIFIED)
        victim = bank.fill(0, 0x080)       # same set, evicts dirty line
        assert victim == (0, 0x000)
        assert bank.stats.writebacks == 1

    def test_upgrade_and_invalidate(self):
        """A fill of a resident line is its upgrade: the state changes,
        nothing is evicted."""
        bank = self.make()
        bank.fill(0, 0x2000)
        assert bank.fill(0, 0x2000, LineState.MODIFIED) is None
        assert bank.probe(0, 0x2000) is LineState.MODIFIED
        assert bank.resident_lines() == 1
        assert bank.invalidate(0, 0x2000) is LineState.MODIFIED
        assert bank.probe(0, 0x2000) is None
        assert bank.invalidate(0, 0x2000) is None

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_occupancy_bounded(self, line_numbers):
        bank = self.make(size=512, assoc=2, line=64)
        for n in line_numbers:
            if not bank.access(0, n * 64):
                bank.fill(0, n * 64)
        assert bank.resident_lines() <= 8


class TestDram:
    def test_unloaded_latency(self):
        dram = Dram(latency=150, issue_gap=4)
        assert dram.request(1000) == 1150

    def test_bandwidth_gate(self):
        dram = Dram(latency=150, issue_gap=4)
        assert dram.request(0) == 150
        assert dram.request(0) == 154
        assert dram.request(0) == 158
        assert dram.stats.queue_cycles == 4 + 8

    def test_idle_gap_not_charged(self):
        dram = Dram(latency=100, issue_gap=4)
        dram.request(0)
        assert dram.request(50) == 150
        assert dram.stats.queue_cycles == 0


class TestL2System:
    def make(self):
        topo = Topology(4, 8)
        l1s = {core: CacheBank(8 * 1024, 2, 64, name=f"l1d{core}") for core in range(32)}
        l2 = L2System(topo, l1_banks=lambda c: l1s[c], dram=Dram(latency=150))
        return l2, l1s

    def test_unloaded_latency_range(self):
        l2, __ = self.make()
        lats = [l2.unloaded_latency(core, addr)
                for core in range(32) for addr in range(0, 32 * 64, 64)]
        assert min(lats) == 5
        # Paper: L2 hit latency varies from 5 to 27 cycles.
        assert 23 <= max(lats) <= 31

    def test_read_miss_goes_to_dram(self):
        l2, __ = self.make()
        done, state = l2.read(ctx=0, addr=0x4000, core=0, now=0)
        assert state is LineState.SHARED
        assert done >= 150
        assert l2.stats.misses == 1

    def test_second_read_hits(self):
        l2, __ = self.make()
        first, __s = l2.read(0, 0x4000, core=0, now=0)
        second, __s = l2.read(0, 0x4000, core=1, now=first)
        assert second - first == l2.unloaded_latency(1, 0x4000)
        assert l2.stats.hits == 1

    def test_write_invalidates_sharers(self):
        l2, l1s = self.make()
        done, state = l2.read(0, 0x8000, core=0, now=0)
        l1s[0].fill(0, 0x8000, state)
        l2.read(0, 0x8000, core=1, now=done)
        l1s[1].fill(0, 0x8000, LineState.SHARED)

        __, wstate = l2.write(0, 0x8000, core=2, now=2 * done)
        assert wstate is LineState.MODIFIED
        assert l1s[0].probe(0, 0x8000) is None
        assert l1s[1].probe(0, 0x8000) is None
        assert l2.stats.invalidation_msgs == 2

    def test_dirty_forward_on_read(self):
        l2, l1s = self.make()
        done, state = l2.write(0, 0xC000, core=3, now=0)
        l1s[3].fill(0, 0xC000, state)

        done2, state2 = l2.read(0, 0xC000, core=7, now=done)
        assert state2 is LineState.SHARED
        assert l2.stats.forwards == 1
        # Previous owner downgraded to SHARED, both are sharers now.
        assert l1s[3].probe(0, 0xC000) is LineState.SHARED
        entry = l2.directory[(0, 0xC000)]
        assert entry.owner is None
        assert entry.sharers == 1 << 3 | 1 << 7

    def test_l1_eviction_clears_directory(self):
        l2, l1s = self.make()
        l2.read(0, 0x4000, core=0, now=0)
        l2.l1_evicted(0, 0x4000, core=0)
        assert (0, 0x4000) not in l2.directory

    def test_bank_interleaving_covers_all_banks(self):
        l2, __ = self.make()
        banks = {l2.bank_of(addr) for addr in range(0, 64 * 64, 64)}
        assert banks == set(range(32))

    def test_contexts_isolated(self):
        l2, __ = self.make()
        l2.read(0, 0x4000, core=0, now=0)
        __, state = l2.read(1, 0x4000, core=0, now=0)
        assert l2.stats.misses == 2   # different context: own line

    def test_l2_eviction_recalls_l1_lines(self):
        """When the L2 evicts a line, any L1 copies are recalled —
        inclusion is maintained so directory state stays precise."""
        topo = Topology(4, 8)
        l1s = {c: CacheBank(8 * 1024, 2, 64, name=f"l1d{c}") for c in range(32)}
        # A tiny L2 so one set overflows quickly: 8 lines, 2-way.
        l2 = L2System(topo, num_banks=1, bank_bytes=8 * 64, assoc=2,
                      l1_banks=lambda c: l1s[c], dram=Dram(latency=10))
        victim_addr = 0x0
        done, state = l2.read(0, victim_addr, core=0, now=0)
        l1s[0].fill(0, victim_addr, state)
        assert l1s[0].probe(0, victim_addr) is not None
        # Two more lines mapping to the same L2 set (set stride = 4 lines).
        l2.read(0, 4 * 64, core=1, now=done)
        l2.read(0, 8 * 64, core=1, now=done)
        assert l1s[0].probe(0, victim_addr) is None
        assert l2.stats.recalls == 1
        assert (0, victim_addr) not in l2.directory


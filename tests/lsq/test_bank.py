"""Unit tests for the LSQ bank: forwarding, violations, NACK overflow."""

import pytest
from hypothesis import given, strategies as st

from repro.lsq import LsqBank, LsqResult


def make(capacity=8):
    return LsqBank(capacity=capacity, name="t")


class TestBasics:
    def test_load_with_no_stores(self):
        bank = make()
        outcome = bank.load(gseq=1, lsq_id=0, addr=0x100, size=8)
        assert outcome.result is LsqResult.OK
        assert len(bank._entries) == 1

    def test_store_then_load_forwards(self):
        bank = make()
        bank.store(gseq=1, lsq_id=0, addr=0x100, size=8, value=42)
        outcome = bank.load(gseq=1, lsq_id=1, addr=0x100, size=8)
        assert outcome.result is LsqResult.FORWARD
        assert outcome.value == 42

    def test_forward_youngest_older_store(self):
        bank = make()
        bank.store(gseq=1, lsq_id=0, addr=0x100, size=8, value=1)
        bank.store(gseq=2, lsq_id=0, addr=0x100, size=8, value=2)
        outcome = bank.load(gseq=3, lsq_id=0, addr=0x100, size=8)
        assert outcome.result is LsqResult.FORWARD
        assert outcome.value == 2

    def test_younger_store_not_forwarded(self):
        bank = make()
        bank.store(gseq=5, lsq_id=0, addr=0x100, size=8, value=9)
        outcome = bank.load(gseq=3, lsq_id=0, addr=0x100, size=8)
        assert outcome.result is LsqResult.OK

    def test_same_block_order_respected(self):
        bank = make()
        bank.store(gseq=1, lsq_id=5, addr=0x100, size=8, value=7)
        # Load earlier in program order than the store: no forwarding.
        outcome = bank.load(gseq=1, lsq_id=2, addr=0x100, size=8)
        assert outcome.result is LsqResult.OK

    def test_different_address_not_forwarded(self):
        bank = make()
        bank.store(gseq=1, lsq_id=0, addr=0x100, size=8, value=7)
        outcome = bank.load(gseq=1, lsq_id=1, addr=0x180, size=8)
        assert outcome.result is LsqResult.OK


class TestViolations:
    def test_store_after_younger_load_violates(self):
        bank = make()
        bank.load(gseq=4, lsq_id=0, addr=0x100, size=8)
        outcome = bank.store(gseq=2, lsq_id=0, addr=0x100, size=8, value=1)
        assert outcome.result is LsqResult.CONFLICT
        assert outcome.violation_gseq == 4
        assert bank.stats.violations == 1

    def test_oldest_violator_reported(self):
        bank = make()
        bank.load(gseq=6, lsq_id=0, addr=0x100, size=8)
        bank.load(gseq=4, lsq_id=1, addr=0x100, size=8)
        outcome = bank.store(gseq=2, lsq_id=0, addr=0x100, size=8, value=1)
        assert outcome.violation_gseq == 4

    def test_same_block_violation(self):
        bank = make()
        bank.load(gseq=3, lsq_id=7, addr=0x100, size=8)
        outcome = bank.store(gseq=3, lsq_id=2, addr=0x100, size=8, value=1)
        assert outcome.result is LsqResult.CONFLICT
        assert outcome.violation_gseq == 3

    def test_no_violation_for_older_load(self):
        bank = make()
        bank.load(gseq=1, lsq_id=0, addr=0x100, size=8)
        outcome = bank.store(gseq=2, lsq_id=0, addr=0x100, size=8, value=1)
        assert outcome.result is LsqResult.OK

    def test_partial_overlap_conflict_on_load(self):
        bank = make()
        bank.store(gseq=1, lsq_id=0, addr=0x100, size=8, value=1)
        outcome = bank.load(gseq=1, lsq_id=1, addr=0x104, size=4)
        assert outcome.result is LsqResult.CONFLICT

    def test_int_fp_type_change_conflicts(self):
        bank = make()
        bank.store(gseq=1, lsq_id=0, addr=0x100, size=8, value=1.5, fp=True)
        outcome = bank.load(gseq=1, lsq_id=1, addr=0x100, size=8, fp=False)
        assert outcome.result is LsqResult.CONFLICT


class TestOverflow:
    def test_nack_when_full(self):
        bank = make(capacity=2)
        assert bank.load(1, 0, 0x100, 8).result is LsqResult.OK
        assert bank.load(1, 1, 0x108, 8).result is LsqResult.OK
        assert bank.load(1, 2, 0x110, 8).result is LsqResult.NACK
        assert bank.store(1, 3, 0x118, 8, 0).result is LsqResult.NACK
        assert bank.stats.nacks == 2
        assert len(bank._entries) == 2

    def test_retry_after_release_succeeds(self):
        bank = make(capacity=1)
        bank.load(1, 0, 0x100, 8)
        assert bank.load(2, 0, 0x108, 8).result is LsqResult.NACK
        bank.release_block(1)
        assert bank.load(2, 0, 0x108, 8).result is LsqResult.OK


class TestLifecycle:
    def test_release_block_removes_entries(self):
        bank = make()
        bank.load(1, 0, 0x100, 8)
        bank.store(1, 1, 0x108, 8, 5)
        bank.load(2, 0, 0x110, 8)
        assert bank.release_block(1) == 2
        assert len(bank._entries) == 1

    def test_squash_from_removes_younger(self):
        bank = make()
        bank.load(1, 0, 0x100, 8)
        bank.load(2, 0, 0x108, 8)
        bank.load(3, 0, 0x110, 8)
        assert bank.squash_from(2) == 2
        assert len(bank._entries) == 1
        assert bank._entries[0].gseq == 1

    def test_stores_of_block_in_lsq_order(self):
        bank = make()
        bank.store(1, 5, 0x100, 8, "b")
        bank.store(1, 2, 0x108, 8, "a")
        bank.store(2, 0, 0x110, 8, "x")
        drain = bank.stores_of_block(1)
        assert [e.lsq_id for e in drain] == [2, 5]

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 31),
                              st.booleans()), max_size=40))
    def test_occupancy_never_exceeds_capacity(self, ops):
        bank = make(capacity=10)
        for gseq, lsq_id, is_store in ops:
            if is_store:
                bank.store(gseq, lsq_id, 0x100 + 8 * lsq_id, 8, 0)
            else:
                bank.load(gseq, lsq_id, 0x100 + 8 * lsq_id, 8)
        assert len(bank._entries) <= 10
        assert bank.stats.peak_occupancy <= 10

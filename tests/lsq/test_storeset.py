"""Unit and integration tests for the store-set dependence predictor."""

import pytest
from dataclasses import replace

from repro.isa import Interpreter
from repro.lsq.storeset import StoreSetPredictor
from repro.tflex import run_program, tflex_config
from repro.workloads import BENCHMARKS, verify_edge_run


class _FakeInstance:
    def __init__(self, gseq, label, store_ids, resolved, squashed=False):
        self.gseq = gseq
        self.squashed = squashed
        self.resolved_store_slots = set(resolved)

        class _B:
            pass
        self.block = _B()
        self.block.label = label
        self.block.store_ids = frozenset(store_ids)


class TestPredictorUnit:
    def test_untracked_load_never_waits(self):
        pred = StoreSetPredictor()
        assert not pred.must_wait(("L", 0), 5, 0, [])
        assert ("L", 0) not in pred._sets

    def test_waits_for_unresolved_predicted_store(self):
        pred = StoreSetPredictor()
        pred.record_violation(("load_blk", 2), ("store_blk", 1))
        older = _FakeInstance(3, "store_blk", store_ids={1}, resolved=set())
        assert pred.must_wait(("load_blk", 2), 7, 2, [older])
        older.resolved_store_slots.add(1)
        assert not pred.must_wait(("load_blk", 2), 7, 2, [older])

    def test_ignores_younger_instances(self):
        pred = StoreSetPredictor()
        pred.record_violation(("load_blk", 2), ("store_blk", 1))
        younger = _FakeInstance(9, "store_blk", store_ids={1}, resolved=set())
        assert not pred.must_wait(("load_blk", 2), 7, 2, [younger])

    def test_same_block_program_order(self):
        pred = StoreSetPredictor()
        pred.record_violation(("blk", 5), ("blk", 2))
        same = _FakeInstance(7, "blk", store_ids={2}, resolved=set())
        # Store lsq 2 is older than load lsq 5 within the same block.
        assert pred.must_wait(("blk", 5), 7, 5, [same])
        # But a predicted store *after* the load never blocks it.
        pred2 = StoreSetPredictor()
        pred2.record_violation(("blk", 1), ("blk", 6))
        assert not pred2.must_wait(("blk", 1), 7, 1, [same])

    def test_ignores_unrelated_stores(self):
        pred = StoreSetPredictor()
        pred.record_violation(("load_blk", 2), ("store_blk", 1))
        other = _FakeInstance(3, "other_blk", store_ids={1}, resolved=set())
        assert not pred.must_wait(("load_blk", 2), 7, 2, [other])

    def test_set_size_bounded(self):
        pred = StoreSetPredictor(max_set=2)
        for lsq in range(5):
            pred.record_violation(("L", 0), ("S", lsq))
        assert len(pred._sets[("L", 0)]) <= 2

    def test_lru_eviction(self):
        pred = StoreSetPredictor(max_loads=2)
        pred.record_violation(("a", 0), ("s", 0))
        pred.record_violation(("b", 0), ("s", 0))
        pred.record_violation(("c", 0), ("s", 0))
        assert ("a", 0) not in pred._sets
        assert ("b", 0) in pred._sets and ("c", 0) in pred._sets
        assert pred.stats.evictions == 1


class TestIntegration:
    @pytest.mark.parametrize("name", ["histogram_like", "parser", "twolf"])
    def test_correct_with_store_sets(self, name):
        """Benchmarks with read-modify-write traffic stay correct under
        store-set throttling."""
        bench = "gcc" if name == "histogram_like" else name
        program, expected, kernel = BENCHMARKS[bench].edge_program()
        cfg = replace(tflex_config(8), store_sets=True)
        proc = run_program(program, num_cores=8, cfg=cfg, max_cycles=3_000_000)
        verify_edge_run(kernel, proc.memory, expected)

    def test_store_sets_not_slower_overall(self):
        """On violation-prone workloads the selective throttle should be
        at worst mildly slower and often faster than the blunt rule."""
        ratios = []
        for name in ("gcc", "parser", "mcf", "dither"):
            program, __, __k = BENCHMARKS[name].edge_program()
            base = run_program(program, num_cores=8,
                               max_cycles=3_000_000).stats.cycles
            program2, __e, __k2 = BENCHMARKS[name].edge_program()
            cfg = replace(tflex_config(8), store_sets=True)
            with_sets = run_program(program2, num_cores=8, cfg=cfg,
                                    max_cycles=3_000_000).stats.cycles
            ratios.append(with_sets / base)
        assert sum(ratios) / len(ratios) < 1.1, ratios

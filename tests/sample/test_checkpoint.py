"""Checkpoint serialization: the flat-memory round trip, the container
format, and resume determinism for the whole engine.  (The warm
structures' snapshot/load/swap contract is tests/test_warm.py.)

The serialization tests push state through a JSON encode / decode
cycle (``json.loads(json.dumps(...))``) on every round-trip, so they
prove not just equality but JSON-safety — the property the on-disk
checkpoint format depends on.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.exec.spec import JobSpec
from repro.mem.flatmem import FlatMemory
from repro.sample.checkpoint import CHECKPOINT_SCHEMA, Checkpoint
from repro.sample.engine import SampledRun


def _json_roundtrip(obj):
    return json.loads(json.dumps(obj))


# ----------------------------------------------------------------------
# Architectural state: flat memory
# ----------------------------------------------------------------------

_mem_stores = st.lists(
    st.tuples(st.integers(0, (1 << 20) // 8 - 1),          # word slot
              st.integers(-(2 ** 31), 2 ** 31 - 1)),        # value
    max_size=40)


class TestFlatMemory:
    @given(_mem_stores)
    def test_snapshot_restore_roundtrip(self, stores):
        mem = FlatMemory()
        for slot, value in stores:
            mem.store(slot * 8, 8, value)
        fresh = FlatMemory()
        fresh.restore(_json_roundtrip(mem.snapshot()))
        assert fresh.snapshot() == mem.snapshot()
        for slot, __ in stores:
            assert fresh.load(slot * 8, 8) == mem.load(slot * 8, 8)

    def test_restore_replaces_prior_contents(self):
        mem = FlatMemory()
        mem.store(0, 8, 7)
        snap = mem.snapshot()
        other = FlatMemory()
        other.store(4096, 8, 99)
        other.restore(snap)
        assert other.load(0, 8) == 7
        assert other.load(4096, 8) == 0


# ----------------------------------------------------------------------
# Whole-run checkpoints
# ----------------------------------------------------------------------

SAMPLING = {"ff_blocks": 16, "window_blocks": 32, "warmup_blocks": 8}


def _spec(bench="ammp", **kwargs):
    return JobSpec.edge(bench, 8, scale=1, sampling=SAMPLING, **kwargs)


class TestCheckpointContainer:
    def test_dict_and_file_roundtrip(self, tmp_path):
        run = SampledRun(_spec())
        run.step()
        checkpoint = run.checkpoint()
        rebuilt = Checkpoint.from_dict(_json_roundtrip(checkpoint.to_dict()))
        assert rebuilt.to_dict() == checkpoint.to_dict()

        path = tmp_path / "run.ckpt"
        checkpoint.save(path)
        assert Checkpoint.load(path).to_dict() == checkpoint.to_dict()

    def test_schema_mismatch_rejected(self):
        run = SampledRun(_spec())
        run.step()
        data = run.checkpoint().to_dict()
        data["schema"] = CHECKPOINT_SCHEMA + 1
        with pytest.raises(ValueError):
            Checkpoint.from_dict(data)

    def test_schema_1_file_rejected(self, tmp_path):
        """Schema 1 stored a cache bank as a bare list of sets; such a
        file must fail loudly at load, not half-way through a resume."""
        run = SampledRun(_spec())
        run.step()
        data = run.checkpoint().to_dict()
        assert CHECKPOINT_SCHEMA == 2
        assert set(data["shadow"]["icache"][0]) == {"sets"}
        data["schema"] = 1
        data["shadow"]["icache"] = [b["sets"] for b in data["shadow"]["icache"]]
        path = tmp_path / "old.ckpt"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema 1"):
            Checkpoint.load(path)

    def test_resume_under_different_spec_rejected(self):
        run = SampledRun(_spec())
        run.step()
        checkpoint = run.checkpoint()
        with pytest.raises(ValueError):
            SampledRun.resume(_spec("gzip"), checkpoint)


class TestResumeDeterminism:
    def test_resume_equals_straight_line(self, tmp_path):
        """Checkpoint after one window/fast-forward step, push the
        checkpoint through the on-disk JSON format, resume, and finish:
        the RunResult must be *identical* to the uninterrupted run's."""
        spec = _spec()
        straight = SampledRun(spec)
        expected = straight.run()

        interrupted = SampledRun(spec)
        assert interrupted.step()
        path = tmp_path / "warm.ckpt"
        interrupted.checkpoint().save(path)

        resumed = SampledRun.resume(spec, Checkpoint.load(path))
        actual = resumed.run()
        assert actual.to_dict() == expected.to_dict()

    def test_checkpoint_carries_dependence_history(self):
        """The violation-history set rides through the checkpoint: it
        accumulates monotonically in a real run, and dropping it at a
        resume boundary would bias later windows fast."""
        spec = JobSpec.edge(
            "gzip", 8, scale=4,
            sampling={"ff_blocks": 64, "window_blocks": 24,
                      "warmup_blocks": 8})
        run = SampledRun(spec)
        while run.step():
            pass
        assert run.dependence, "expected gzip scale=4 to violate"
        checkpoint = run.checkpoint()
        rebuilt = SampledRun.resume(spec,
                                    Checkpoint.from_dict(
                                        _json_roundtrip(checkpoint.to_dict())))
        assert rebuilt.dependence == run.dependence

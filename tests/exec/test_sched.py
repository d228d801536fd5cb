"""Adaptive scheduling: job families, the duration book, LJF ordering."""

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import JobSpec
from repro.exec.sched import (
    BOOK_NAME,
    BOOK_SCHEMA,
    EWMA_ALPHA,
    DurationBook,
    job_family,
    order_indices,
)


class TestJobFamily:
    def test_edge_family_carries_machine_and_scale(self):
        assert job_family(JobSpec.edge("conv", ncores=4)) == "conv|tflex4|x1"
        assert (job_family(JobSpec.edge("gzip", ncores=16, scale=3))
                == "gzip|tflex16|x3")

    def test_trips_and_risc_are_distinct_machines(self):
        assert job_family(JobSpec.edge("conv", trips=True)) == "conv|trips|x1"
        assert job_family(JobSpec.risc("conv")) == "conv|risc|x1"

    def test_mode_tags(self):
        sampled = JobSpec.edge("conv", ncores=4,
                               sampling={"ff_blocks": 100})
        assert job_family(sampled).endswith("+sampled100")
        faulty = JobSpec.edge("conv", ncores=4, faults=("dead:3",))
        assert job_family(faulty).endswith("+faults")

    def test_sampling_fidelity_splits_families(self):
        """Search rungs at different fast-forward lengths differ by
        integer runtime factors — they must not share an estimate."""
        coarse = JobSpec.edge("conv", ncores=4,
                              sampling={"ff_blocks": 64,
                                        "window_blocks": 16})
        fine = JobSpec.edge("conv", ncores=4,
                            sampling={"ff_blocks": 16,
                                      "window_blocks": 32})
        assert job_family(coarse) != job_family(fine)
        # Window/warmup variants at one fast-forward length fold in.
        window = JobSpec.edge("conv", ncores=4,
                              sampling={"ff_blocks": 64,
                                        "window_blocks": 24})
        assert job_family(coarse) == job_family(window)

    def test_overrides_fold_into_one_family(self):
        base = JobSpec.edge("conv", ncores=4)
        ablated = JobSpec.edge("conv", ncores=4,
                               overrides={"l2_hit_cycles": 9})
        assert job_family(base) == job_family(ablated)


class TestDurationBook:
    def test_first_observation_is_the_estimate(self):
        book = DurationBook()
        assert book.estimate("f") is None
        book.note("f", 2.0)
        assert book.estimate("f") == 2.0

    def test_ewma_update(self):
        book = DurationBook()
        book.note("f", 2.0)
        book.note("f", 4.0)
        expected = EWMA_ALPHA * 4.0 + (1 - EWMA_ALPHA) * 2.0
        assert book.estimate("f") == pytest.approx(expected)

    def test_negative_durations_clamped(self):
        book = DurationBook()
        book.note("f", -1.0)
        assert book.estimate("f") == 0.0

    def test_flush_roundtrip(self, tmp_path):
        path = tmp_path / BOOK_NAME
        book = DurationBook(path)
        book.note("conv|tflex4|x1", 1.5)
        book.flush()
        again = DurationBook(path)
        assert again.estimate("conv|tflex4|x1") == 1.5
        data = json.loads(path.read_text())
        assert data["schema"] == BOOK_SCHEMA

    def test_flush_merges_concurrent_sessions(self, tmp_path):
        """Two invocations sharing one cache dir: each flushes only the
        families it ran; neither shreds the other's estimates."""
        path = tmp_path / BOOK_NAME
        a = DurationBook(path)
        b = DurationBook(path)
        a.note("fam.a", 1.0)
        b.note("fam.b", 2.0)
        a.flush()
        b.flush()           # b never saw fam.a — the merge keeps it
        merged = DurationBook(path)
        assert merged.estimate("fam.a") == 1.0
        assert merged.estimate("fam.b") == 2.0

    def test_corrupt_sidecar_reads_cold(self, tmp_path):
        path = tmp_path / BOOK_NAME
        path.write_text("{not json")
        assert len(DurationBook(path)) == 0
        path.write_text(json.dumps({"schema": 999, "families": {"f": 1}}))
        assert len(DurationBook(path)) == 0

    def test_flush_without_observations_writes_nothing(self, tmp_path):
        path = tmp_path / BOOK_NAME
        DurationBook(path).flush()
        assert not path.exists()

    def test_for_store_root(self, tmp_path):
        book = DurationBook.for_store_root(tmp_path)
        assert book.path == tmp_path / BOOK_NAME
        assert DurationBook.for_store_root(None).path is None

    def test_note_spec_uses_family(self):
        book = DurationBook()
        spec = JobSpec.edge("conv", ncores=4)
        book.note_spec(spec, 3.0)
        assert book.estimate_for(spec) == 3.0


class TestOrderIndices:
    def _specs(self):
        return [JobSpec.edge("conv", ncores=2, scale=i + 1)
                for i in range(4)]

    def test_cold_book_degrades_to_fifo(self):
        specs = self._specs()
        assert order_indices(specs, [2, 0, 1], DurationBook()) == [2, 0, 1]
        assert order_indices(specs, [2, 0, 1], None) == [2, 0, 1]

    def test_ljf_fronts_longest_known(self):
        specs = self._specs()
        book = DurationBook()
        book.note_spec(specs[0], 1.0)
        book.note_spec(specs[1], 5.0)
        book.note_spec(specs[2], 3.0)
        book.note_spec(specs[3], 9.0)
        assert order_indices(specs, [0, 1, 2, 3], book) == [3, 1, 2, 0]

    def test_unknown_families_run_first_in_input_order(self):
        """An unseen job may be the longest of all: dispatch it before
        the known ones so a misestimate cannot serialise the tail."""
        specs = self._specs()
        book = DurationBook()
        book.note_spec(specs[1], 5.0)
        book.note_spec(specs[2], 1.0)
        order = order_indices(specs, [0, 1, 2, 3], book)
        assert order == [0, 3, 1, 2]


#: Hypothesis vocabularies for the property tests below.
_DURATIONS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_FAMILY_NAMES = st.text(alphabet="abcdefgh0123456789|x+.", min_size=1,
                        max_size=16)
_FAMILY_MAPS = st.dictionaries(
    _FAMILY_NAMES, st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1, max_size=6)


class TestDurationBookProperties:
    """Property tests: invariants the scheduler's correctness-neutral
    contract rests on, over adversarial inputs."""

    @given(st.lists(_DURATIONS, min_size=1, max_size=50))
    def test_ewma_never_negative(self, observations):
        """Whatever garbage timers report (clock steps backwards, NTP
        slew), the estimate must stay a plausible duration: >= 0 and
        finite after every single observation."""
        book = DurationBook()
        for seconds in observations:
            estimate = book.note("f", seconds)
            assert estimate >= 0.0
            assert estimate <= 1e6
            assert book.estimate("f") == estimate

    @settings(deadline=None, max_examples=25)
    @given(_FAMILY_MAPS, _FAMILY_MAPS)
    def test_sidecar_merge_is_commutative_for_disjoint_sessions(
            self, fams_a, fams_b):
        """Two sessions that ran disjoint families can flush into one
        sidecar in either order and produce the identical file — the
        read-merge-write contract of concurrent CLI invocations."""
        fams_a = {"a:" + name: secs for name, secs in fams_a.items()}
        fams_b = {"b:" + name: secs for name, secs in fams_b.items()}

        def flush_session(path, families):
            book = DurationBook(path)
            for family, seconds in families.items():
                book.note(family, seconds)
            book.flush()

        with tempfile.TemporaryDirectory() as tmp:
            ab = pathlib.Path(tmp) / "ab" / BOOK_NAME
            ba = pathlib.Path(tmp) / "ba" / BOOK_NAME
            flush_session(ab, fams_a)
            flush_session(ab, fams_b)
            flush_session(ba, fams_b)
            flush_session(ba, fams_a)
            assert json.loads(ab.read_text()) == json.loads(ba.read_text())

    @settings(deadline=None, max_examples=25)
    @given(_FAMILY_MAPS)
    def test_flush_is_idempotent(self, families):
        """Flushing a book twice writes the same file: the second flush
        has no touched families left and must not re-fold estimates."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / BOOK_NAME
            book = DurationBook(path)
            for family, seconds in families.items():
                book.note(family, seconds)
            book.flush()
            first = path.read_text()
            book.flush()
            assert path.read_text() == first


class TestOrderIndicesProperties:
    @settings(deadline=None)
    @given(n=st.integers(min_value=1, max_value=8), data=st.data())
    def test_order_is_permutation_of_todo(self, n, data):
        """LJF reorders dispatch, never gates or drops work: for any
        todo subset and any partially-warm book, the result is exactly
        a permutation of todo."""
        specs = [JobSpec.edge("conv", ncores=2, scale=i + 1)
                 for i in range(n)]
        todo = data.draw(st.permutations(range(n)))
        observed = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.floats(min_value=0.0, max_value=1e3,
                                allow_nan=False)),
            max_size=2 * n))
        book = DurationBook()
        for index, seconds in observed:
            book.note_spec(specs[index], seconds)
        order = order_indices(specs, todo, book)
        assert sorted(order) == sorted(todo)
        # Structural LJF invariant: unknown families first in input
        # order, then known families by non-increasing estimate.
        estimates = [book.estimate_for(specs[i]) for i in order]
        known_start = next(
            (pos for pos, est in enumerate(estimates) if est is not None),
            len(estimates))
        assert all(est is None for est in estimates[:known_start])
        known = estimates[known_start:]
        assert all(est is not None for est in known)
        assert known == sorted(known, reverse=True)

    @given(n=st.integers(min_value=1, max_value=8), data=st.data())
    def test_cold_book_is_fifo(self, n, data):
        """With no estimates at all (or no book), LJF degrades to plain
        FIFO."""
        specs = [JobSpec.edge("conv", ncores=2, scale=i + 1)
                 for i in range(n)]
        todo = data.draw(st.permutations(range(n)))
        assert order_indices(specs, todo, DurationBook()) == list(todo)
        assert order_indices(specs, todo, None) == list(todo)

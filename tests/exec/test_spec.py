"""JobSpec canonicalisation and content hashing."""

import subprocess
import sys

from repro.exec import SCHEMA_VERSION, JobSpec, spec_hash


class TestCanonicalisation:
    def test_override_order_irrelevant(self):
        a = JobSpec.edge("conv", overrides={"a": 1, "b": 2})
        b = JobSpec.edge("conv", overrides={"b": 2, "a": 1})
        assert a == b
        assert spec_hash(a) == spec_hash(b)

    def test_trips_ignores_requested_cores(self):
        a = JobSpec.edge("conv", trips=True, ncores=8)
        b = JobSpec.edge("conv", trips=True, ncores=16)
        assert spec_hash(a) == spec_hash(b)

    def test_typed_overrides_do_not_collide(self):
        # "+x=1" formats identically for int 1 and str "1": the old
        # label-keyed cache collided here, the content hash must not.
        a = JobSpec.edge("conv", overrides={"x": 1})
        b = JobSpec.edge("conv", overrides={"x": "1"})
        assert a.label() == b.label()
        assert spec_hash(a) != spec_hash(b)

    def test_labels_match_legacy_format(self):
        assert JobSpec.edge("conv", ncores=2).label() == "tflex-2"
        assert JobSpec.edge("conv", trips=True).label() == "trips"
        assert (JobSpec.edge("conv", ncores=2, ideal_handshake=True).label()
                == "tflex-2-ideal")
        spec = JobSpec.edge("conv", ncores=4,
                            overrides={"b": 2, "a": 1})
        assert spec.label() == "tflex-4+a=1+b=2"
        assert JobSpec.risc("conv").label() == "ooo"

    def test_dict_round_trip(self):
        spec = JobSpec.edge("mcf", ncores=16, scale=3,
                            overrides={"x": 1}, core_overrides={"y": False})
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestHashing:
    def test_distinct_points_distinct_hashes(self):
        specs = [
            JobSpec.edge("conv", ncores=2),
            JobSpec.edge("conv", ncores=4),
            JobSpec.edge("dither", ncores=2),
            JobSpec.edge("conv", ncores=2, scale=2),
            JobSpec.edge("conv", ncores=2, ideal_handshake=True),
            JobSpec.risc("conv"),
        ]
        hashes = {spec_hash(s) for s in specs}
        assert len(hashes) == len(specs)

    def test_salt_changes_hash(self):
        spec = JobSpec.edge("conv", ncores=2)
        assert spec_hash(spec, salt=SCHEMA_VERSION) != \
            spec_hash(spec, salt=SCHEMA_VERSION + 1)

    def test_stable_across_processes(self):
        # Hash randomisation (PYTHONHASHSEED) must not leak into the
        # content address: recompute in a fresh interpreter.
        spec = JobSpec.edge("conv", ncores=2, overrides={"z": 9, "a": 1})
        code = (
            "from repro.exec import JobSpec, spec_hash;"
            "print(spec_hash(JobSpec.edge('conv', ncores=2,"
            " overrides={'a': 1, 'z': 9})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7",
                             # no __pycache__ left in the checkout
                             "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=__file__.rsplit("/tests/", 1)[0])
        assert out.stdout.strip() == spec_hash(spec)

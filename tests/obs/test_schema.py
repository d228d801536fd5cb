"""Registry drift tests for :mod:`repro.obs.schema`.

Two directions:

* registry ⊆ docs — every registered name must appear literally in
  docs/OBSERVABILITY.md (this is the only check of that direction);
* registry ⊇ runtime — every name actually emitted by a representative
  fast-lane workload (detailed run + sampled run, metrics on) must be
  registered, which catches dynamically formatted names the AST pass
  cannot see (e.g. the ``tflex.<field>`` scalar flush).
"""

from pathlib import Path

import repro.obs
from repro.obs import Observability, RingBufferSink
from repro.obs.schema import (
    EVENT_NAMES,
    METRIC_NAMES,
    PHASE_NAMES,
    TFLEX_SCALARS,
)

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


class TestRegistryMatchesDocs:
    def test_every_event_is_documented(self):
        text = DOC.read_text(encoding="utf-8")
        missing = sorted(n for n in EVENT_NAMES if n not in text)
        assert not missing, f"events not in docs/OBSERVABILITY.md: {missing}"

    def test_every_metric_is_documented(self):
        text = DOC.read_text(encoding="utf-8")
        missing = sorted(n for n in METRIC_NAMES if n not in text)
        assert not missing, f"metrics not in docs/OBSERVABILITY.md: {missing}"

    def test_tflex_scalars_mirror_procstats(self):
        from repro.tflex.stats import ProcStats

        assert tuple(ProcStats._SCALAR_FIELDS) == TFLEX_SCALARS


class TestRuntimeNamesAreRegistered:
    def _run_detailed(self, obs):
        from repro.tflex import TFlexSystem, rectangle, tflex_config
        from repro.workloads import BENCHMARKS

        program, __, __k = BENCHMARKS["tblook"].edge_program(1)
        cfg = tflex_config(2)
        system = TFlexSystem(cfg, obs=obs)
        system.compose(rectangle(cfg, 2), program)
        system.run()

    def _run_sampled(self):
        from repro.exec import JobSpec
        from repro.harness.runner import simulate_spec

        spec = JobSpec.edge("tblook", ncores=2,
                            sampling={"ff_blocks": 64, "window_blocks": 16,
                                      "warmup_blocks": 4})
        simulate_spec(spec)

    def test_emitted_names_are_subset_of_registry(self):
        obs = repro.obs.configure(metrics=True)
        ring = obs.bus.attach(RingBufferSink())
        obs.profiler.enabled = True
        self._run_detailed(obs)
        self._run_sampled()            # picks up the global bundle
        ring.events.append(obs.snapshot_event())

        kinds = {event["kind"] for event in ring.events}
        assert kinds - EVENT_NAMES == set(), (
            f"unregistered event kinds: {sorted(kinds - EVENT_NAMES)}")
        # A meaningful workload: both the detailed and sampled paths ran.
        assert "block.commit" in kinds
        assert "sample.window" in kinds

        snap = obs.metrics.snapshot()
        names = {key.split("{", 1)[0]
                 for group in snap.values() for key in group}
        assert names - METRIC_NAMES == set(), (
            f"unregistered metric names: {sorted(names - METRIC_NAMES)}")
        assert {f"tflex.{f}" for f in TFLEX_SCALARS} & names

        phases = set(obs.profiler.snapshot())
        assert phases - PHASE_NAMES == set(), (
            f"unregistered profiler phases: {sorted(phases - PHASE_NAMES)}")

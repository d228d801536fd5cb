"""Seeded bugs, checked in as data, and the checks that must catch them.

Each row of :data:`MUTANTS` is one deliberate bug, ``(id, path, old,
new, catcher)``: replace ``old`` — which occurs exactly once in
``path``, relative to the repo root — by ``new``.  ``catcher`` is the
tier-1 test ids that must each fail with the bug in place, or
:data:`LINT` for a bug only a ``repro lint`` rule sees.  An id that
names a retired lint rule (REP101, REP403) is a bug that rule was built
for; docs/ANALYSIS.md "Measured" has why the tests listed suffice.

Run it from the repo root::

    PYTHONPATH=src python tests/mutants.py

It copies the tree to a temporary directory, applies one row at a time,
runs only that row's catcher (hypothesis seeded, so a run repeats) and
restores the file.  It prints one line per row and exits 1 if a mutant
survives.  ``tests/test_mutants.py`` keeps the table from going stale.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
LINT = "repro lint"

_WARM = "tests/test_warm.py::"
_LOADS_BACK = _WARM + "test_snapshot_survives_json_and_loads_back_equal"

MUTANTS = [
    # Leaf WARM lists (REP101's own case): a field left off, or a name
    # __init__ never assigns.
    ("REP101-ras-drops-top", "src/repro/predictor/ras.py",
     'WARM = (("_stack", list, list), ("_top", int, int))',
     'WARM = (("_stack", list, list),)',
     ("tests/resil/test_recompose.py::TestTransferRas::"
      "test_same_capacity_round_trip",)),
    ("REP101-exits-drops-choice", "src/repro/predictor/exits.py",
     '        ("_choice", list, list),\n', "",
     (_LOADS_BACK + "[exits]",)),
    ("REP101-exits-drops-local-hist", "src/repro/predictor/exits.py",
     '        ("_local_hist", list, list),\n', "",
     (_LOADS_BACK + "[exits]",)),
    ("REP101-targets-drops-ctb", "src/repro/predictor/targets.py",
     '        ("_ctb", _encode_tagged, _decode_tagged),\n', "",
     (_LOADS_BACK + "[targets]",)),
    ("REP101-cache-names-unassigned", "src/repro/mem/cache.py",
     'WARM = (("_sets", _encode_sets, _decode_sets),)',
     'WARM = (("_sets", _encode_sets, _decode_sets), ("_mru", list, list))',
     (_LOADS_BACK + "[cache]",)),
    # Composites, which REP101 read by attribute name and so missed.
    ("composite-bank-swap-skips-targets", "src/repro/predictor/bank.py",
     "        self.targets.swap_state(other.targets)\n", "",
     (_WARM + "test_swap_equals_load_roundtrip_both_ways[predictor-bank]",)),
    ("composite-shadow-load-skips-ras", "src/repro/sample/shadow.py",
     '            [(self.ras, state["ras"])]\n            + [(bank, snapshot)',
     "            [(bank, snapshot)",
     (_LOADS_BACK + "[shadow-2]",)),
    ("composite-shadow-part-off-surface", "src/repro/sample/shadow.py",
     "        self.skipped = (0, 0)\n",
     "        self.skipped = (0, 0)\n"
     "        # A victim buffer beside each D-cache bank keeps its evictions.\n"
     "        self.victims = [CacheBank(4 * cfg.line_size, 4, cfg.line_size)\n"
     "                        for __ in self.dcaches]\n"
     "        for dcache, victims in zip(self.dcaches, self.victims):\n"
     "            def fill(ctx, addr, state=LineState.SHARED,\n"
     "                     fill=dcache.fill, victims=victims):\n"
     "                victim = fill(ctx, addr, state)\n"
     "                if victim is not None:\n"
     "                    victims.fill(victim.ctx, victim.line_addr,\n"
     "                                 victim.state)\n"
     "                return victim\n"
     "            dcache.fill = fill\n",
     (_WARM + "test_load_moves_every_reachable_warm_part[shadow-2]",)),
    # The registry <-> docs direction (REP403's case).
    ("REP403-doc-drops-pool-stop", "docs/OBSERVABILITY.md",
     "| `pool.stop` | `respawns, reused` (end-of-sweep pool summary) |\n", "",
     ("tests/obs/test_schema.py::TestRegistryMatchesDocs::"
      "test_every_event_is_documented",)),
    # An emitted or counted name the registry does not know (REP401,
    # REP402): a test that listens for the name catches most of them.
    ("REP401-cache-gc", "src/repro/exec/store.py",
     'obs.emit("cache.gc",', 'obs.emit("cache.gc_done",',
     ("tests/exec/test_gc.py::TestGcCache::test_emits_event_and_metrics",)),
    ("REP401-recompose-start", "src/repro/resil/recompose.py",
     'obs.emit("recompose.start",', 'obs.emit("recompose.begin",',
     ("tests/resil/test_run.py::TestObservability::"
      "test_recovery_metrics_and_events",)),
    ("REP401-search-rung", "src/repro/search/halving.py",
     'obs.emit("search.rung",', 'obs.emit("search.rung_done",',
     ("tests/search/test_halving.py::TestObservability::"
      "test_events_and_metrics",)),
    ("REP401-trace-write-failed", "src/repro/sample/trace.py",
     'obs.emit("trace.write_failed",', 'obs.emit("trace.write_error",',
     ("tests/sample/test_trace.py::TestUnwritableStore::test_disk_full",)),
    ("REP401-pool-spawn", "src/repro/exec/pool.py",
     'obs.emit("pool.spawn",', 'obs.emit("pool.spawned",', LINT),
    ("REP402-exec-store-errors", "src/repro/exec/executor.py",
     'metrics.inc("exec.store_errors")', 'metrics.inc("exec.store_error")',
     ("tests/exec/test_executor.py::TestStoreIntegration::"
      "test_store_write_error_costs_the_record_not_the_sweep[1]",)),
    ("REP402-search-eliminations", "src/repro/search/halving.py",
     'metrics.inc("search.eliminations",', 'metrics.inc("search.eliminated",',
     ("tests/search/test_halving.py::TestObservability::"
      "test_events_and_metrics",)),
    ("REP402-resil-blocks-lost", "src/repro/resil/recompose.py",
     'metrics.inc("resil.blocks_lost",', 'metrics.inc("resil.lost_blocks",',
     LINT),
    # Set iteration order (REP204): small-int sets iterate in one order
    # in CPython, so no test can see this one.
    ("REP204-l2-sharer-order", "src/repro/mem/l2.py",
     "for sharer in sorted(entry.sharers):", "for sharer in entry.sharers:",
     LINT),
]

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".repro-cache")


def _commands(catcher) -> list:
    if catcher == LINT:
        return [[sys.executable, "-m", "repro", "lint"]]
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", test] for test in catcher]


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_COPY_IGNORE)
        # No bytecode: a mutant and its restore can share an mtime.
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for mutant_id, path, old, new, catcher in MUTANTS:
            target = tree / path
            text = target.read_text(encoding="utf-8")
            codes = ["stale: old text not found once"]
            if text.count(old) == 1:
                target.write_text(text.replace(old, new), encoding="utf-8")
                try:
                    codes = [subprocess.run(command, cwd=tree, env=env,
                                            capture_output=True).returncode
                             for command in _commands(catcher)]
                finally:
                    target.write_text(text, encoding="utf-8")
            # Exit 1 is a finding or a failed test; anything else (a
            # test id that no longer exists, a crash) catches nothing.
            caught = all(code == 1 for code in codes)
            survivors += not caught
            shown = catcher if catcher == LINT else " ".join(catcher)
            print(f"{'caught' if caught else 'SURVIVED':8} {mutant_id}: "
                  f"{shown}" + ("" if caught else f" (exit {codes})"),
                  flush=True)
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

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
survives that :data:`JUSTIFIED` does not argue for; the justified
survivors are listed with their argument at the end.
``tests/test_mutants.py`` keeps the table from going stale.
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
_INTERP = "src/repro/isa/interp.py"
_SHADOW = "src/repro/sample/shadow.py"
_DECODE = "src/repro/tflex/decode.py"
_RECORDS = ("tests/tflex/test_decode.py::"
            "test_records_match_isa_on_every_composition[conv]")
_MEMO = "tests/isa/test_path_memo.py::"
_TYPES = _MEMO + "test_operand_types_on_compiled_paths[selectors"
_CLASSIFY = _MEMO + "test_sample_programs_agree[predicated_classify]"
_FIXED = "tests/sample/test_fixed_point.py::"
_ICACHE = (_FIXED + "test_thrashing_sets[32]", _FIXED + "test_nested_loops",
           _FIXED + "test_generated_loop_programs")

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
    # One record per static instruction: the timing model's placement
    # over the interpreter's records.
    ("fold-route-slot-off-by-one", _DECODE,
     "pb.insts[enc >> 2], enc))", "pb.insts[enc >> 2], enc + 1))",
     (_RECORDS,)),
    ("fold-groups-not-interleaved", _DECODE,
     "chunks = [pb.insts[index::ncores] for index in range(ncores)]",
     "n = len(pb.insts)\n"
     "        chunks = [pb.insts[i * n // ncores:(i + 1) * n // ncores]\n"
     "                  for i in range(ncores)]",
     (_RECORDS,)),
    ("fold-missing-without-dispatch-token", _DECODE,
     "self.missing = [need + 1 for need in pb.needs]",
     "self.missing = list(pb.needs)",
     ("tests/tflex/test_units.py::TestBlockInstance::"
      "test_not_ready_before_dispatch",)),
    ("fold-dep-key-from-iid", _INTERP,
     "self.dep_key = (block.label, inst.lsq_id)",
     "self.dep_key = (block.label, inst.iid)", (_RECORDS,)),
    # Compiled block paths, and the load helper they share with the
    # dataflow loop.
    ("compile-register-reads-typed-int", _INTERP,
     '            lines.append(f"{value} = regs[{reg}]")\n',
     '            lines.append(f"{value} = regs[{reg}]")\n'
     "            result = int\n",
     (_TYPES + "0]",)),
    ("compile-guard-polarity", _INTERP,
     "if {'' if guard.falsy else 'not '}{value}: ",
     "if {'not ' if guard.falsy else ''}{value}: ", (_CLASSIFY,)),
    ("interp-forwarded-load-logged", _INTERP,
     "                return value\n        load_addrs.append(addr)\n",
     "                load_addrs.append(addr)\n"
     "                return value\n        load_addrs.append(addr)\n",
     (_MEMO + "test_a_forwarded_load_is_not_a_memory_access",)),
    ("compile-ldd-read-unsigned", _INTERP,
     '(8, False): "<q"', '(8, False): "<Q"',
     (_MEMO + "test_loads_on_a_compiled_path[LDD-8-True]",)),
    ("compile-tail-with-root-types", _INTERP,
     "    types: dict[int, type] = {}     # slot -> int / float where known\n",
     "    types = _compile.__dict__.setdefault(pb.label, {})\n",
     (_TYPES + "2]",)),
    ("compile-every-load-typed", _INTERP,
     "            if not pi.older:            # nothing in the block can "
     "forward\n", "            if True:\n", (_TYPES + "0]",)),
    ("compile-buf-store-elided-across-exit", _INTERP,
     "if use is not None and exits[use] == exits[pos]:",
     "if use is not None:", (_CLASSIFY,)),
    ("compile-inline-load-with-older-stores", _INTERP,
     "f\"if {'block_stores or ' if pi.older else ''}page is None \"",
     'f"if page is None "',
     (_MEMO + "test_late_path_is_learnt_then_served_without_the_dataflow_"
      "loop",)),
    # Loop fixed points in the shadow warm-up; the last three survive
    # (see JUSTIFIED).
    ("warm-skip-replays-nothing", _SHADOW,
     "period = [(at, reads[at]) for at in range(i - p, i) if at in reads]",
     "period = []", (_FIXED + "test_store_to_a_code_line[4096]",)),
    ("warm-collapse-past-owner", _SHADOW,
     "                        if entry.owner is None:\n",
     "                        if True:\n",
     (_FIXED + "test_store_to_a_code_line[0]",)),
    ("warm-pred-snapshot-no-ras-top", _SHADOW,
     "lambda i, j: (ghist, ras._top, changes)",
     "lambda i, j: (ghist, changes)",
     (_FIXED + "test_generated_loop_programs",)),
    ("warm-pred-snapshot-no-change-count", _SHADOW,
     "lambda i, j: (ghist, ras._top, changes)",
     "lambda i, j: (ghist, ras._top)", (_FIXED + "test_nested_loops",)),
    ("warm-pred-periods-by-address-only", _SHADOW,
     "            columns, run, lambda i, j:",
     "            (interval.addrs,), run, lambda i, j:",
     (_FIXED + "test_skip_engages_on_a_one_block_loop",)),
    ("warm-icache-snapshot-no-set-contents", _SHADOW,
     "            return ([tuple(icache._sets.get(index, ()))\n"
     "                     for icache in self.icaches for index in order],\n"
     "                    list(pending.items()), dict(resident))",
     "            return (list(pending.items()), dict(resident))", _ICACHE),
    ("warm-icache-snapshot-no-resident", _SHADOW,
     "list(pending.items()), dict(resident))", "list(pending.items()))",
     _ICACHE),
    ("warm-icache-snapshot-pending-unordered", _SHADOW,
     "list(pending.items()), dict(resident))",
     "sorted(pending.items()), dict(resident))", _ICACHE),
]

#: Rows that survive on purpose: id -> why no test can see the bug.  The
#: I-cache pass compares a loop period only after the same period ran
#: once, and an LRU stack after two identical periods equals the stack
#: after one; the snapshot keeps these parts so the exactness argument
#: stays local.
JUSTIFIED = {
    "warm-icache-snapshot-no-set-contents":
        "the period's I-cache sets are equal after one and after two runs",
    "warm-icache-snapshot-no-resident":
        "residency follows those stacks, so it is equal after both runs",
    "warm-icache-snapshot-pending-unordered":
        "both runs leave the period's blocks pending in its fetch order",
}

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".repro-cache")


def _commands(catcher) -> list:
    if catcher == LINT:
        return [[sys.executable, "-m", "repro", "lint"]]
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", test] for test in catcher]


def main() -> int:
    survivors = 0
    justified = []
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
            shown = catcher if catcher == LINT else " ".join(catcher)
            if caught:
                status = "caught"
            elif mutant_id in JUSTIFIED and all(code == 0 for code in codes):
                status = "survived"
                justified.append(mutant_id)
            else:
                status = "SURVIVED"
                survivors += 1
            print(f"{status:8} {mutant_id}: {shown}"
                  + ("" if caught else f" (exit {codes})"), flush=True)
    print(f"{len(MUTANTS) - survivors - len(justified)}/{len(MUTANTS)} "
          f"mutants caught, {len(justified)} justified survivors:")
    for mutant_id in justified:
        print(f"  {mutant_id}: {JUSTIFIED[mutant_id]}")
    return 1 if survivors else 0

if __name__ == "__main__":
    sys.exit(main())

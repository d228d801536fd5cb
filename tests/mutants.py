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
_SWAP = _WARM + "test_swap_equals_copy_both_ways"
_WINDOW = _WARM + "test_load_moves_every_reachable_warm_part[shadow-2]"
_INTERP = "src/repro/isa/interp.py"
_SHADOW = "src/repro/sample/shadow.py"
_DECODE = "src/repro/tflex/decode.py"
_RECORDS = ("tests/tflex/test_decode.py::"
            "test_records_match_isa_on_every_composition[conv]")
_MEMO = "tests/isa/test_path_memo.py::"
_TYPES = _MEMO + "test_operand_types_on_compiled_paths[selectors"
_CLASSIFY = _MEMO + "test_sample_programs_agree[predicated_classify]"
_FIXED = "tests/sample/test_fixed_point.py::"
_EAGER = "tests/sample/test_warm_equals_eager.py::"
_TRACE = "src/repro/sample/trace.py"
_DECODED = ("tests/sample/test_trace.py::"
            "test_decoded_trace_replays_like_the_recorded_one")
_ROUNDTRIP = "tests/sample/test_trace.py::TestTraceRoundtrip::"
_LAYOUT = _ROUNDTRIP + "test_blob_is_a_header_line_then_column_bytes"
_REGS = "tests/sample/test_trace.py::TestRegDelta::"
_SIMULATE = "src/repro/harness/simulate.py"
_RESIL_RUN = "tests/resil/test_run.py::"
_KILL = _RESIL_RUN + "TestKillRecovery::"
_AXES = "tests/exec/test_axes.py::"
_POOL = "src/repro/exec/pool.py"
_RUNNER = "src/repro/harness/runner.py"
_HASHED_ONCE = ("tests/test_import_budget.py::"
                "test_warm_sweep_hashes_and_reads_each_spec_once")
_LIFECYCLE = ("tests/tflex/test_lifecycle.py::"
              "test_a_simulated_system_leaves_no_cycle")
_L2 = "src/repro/mem/l2.py"
_COHERENCE = ("tests/mem/test_compact_coherence.py::"
              "test_compact_state_equals_object_state")
_NO_CACHE = ("tests/test_cli.py::TestFFTraceFlags::"
             "test_no_cache_disables_traces_unless_asked")

MUTANTS = [
    # Leaf WARM lists (REP101's own case): a field left off stays
    # behind on a swap, and a name __init__ never assigns fails getattr.
    ("REP101-ras-drops-top", "src/repro/predictor/ras.py",
     'WARM = ("_stack", "_top")', 'WARM = ("_stack",)', (_SWAP + "[ras]",)),
    ("REP101-exits-drops-choice", "src/repro/predictor/exits.py",
     '"_global_pattern", "_choice")', '"_global_pattern")',
     (_SWAP + "[exits]",)),
    ("REP101-exits-drops-local-hist", "src/repro/predictor/exits.py",
     'WARM = ("_local_hist", ', "WARM = (", (_SWAP + "[exits]",)),
    ("REP101-targets-drops-ctb", "src/repro/predictor/targets.py",
     'WARM = ("_btype", "_btb", "_ctb")', 'WARM = ("_btype", "_btb")',
     (_SWAP + "[targets]",)),
    ("REP101-cache-names-unassigned", "src/repro/mem/cache.py",
     'WARM = ("_sets",)', 'WARM = ("_sets", "_mru")', (_SWAP + "[cache]",)),
    # Composites, which REP101 read by attribute name and so missed.
    ("composite-bank-swap-skips-targets", "src/repro/predictor/bank.py",
     "        self.targets.swap_state(other.targets)\n", "",
     (_SWAP + "[predictor-bank]",
      _WARM + "test_swap_moves_every_reachable_warm_part[predictor-bank]")),
    ("composite-window-swap-skips-ras", "src/repro/sample/engine.py",
     "pairs = [(proc.ras, shadow.ras), *zip(",
     "pairs = [*zip(", (_WINDOW,)),
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
     "                    victims.fill(*victim)\n"
     "                return victim\n"
     "            dcache.fill = fill\n",
     (_WINDOW,)),
    # The registry <-> docs direction (REP403's case).
    ("REP403-doc-drops-pool-stop", "docs/OBSERVABILITY.md",
     "| `pool.stop` | `respawns, reused` (end-of-sweep pool summary) |\n", "",
     ("tests/obs/test_schema.py::TestRegistryMatchesDocs::"
      "test_every_event_is_documented",)),
    # An emitted or counted name the registry does not know (REP401,
    # REP402): a test that listens for the name catches most of them.
    ("REP401-cache-gc", "src/repro/exec/gc.py",
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
    # Sharer order (REP204's case, once a set's iteration order): the
    # directory's bit masks are walked from core 0 up, and a sharer's
    # bit is its own.
    ("REP204-l2-sharer-order", _L2,
     "        low = mask & -mask\n"
     "        yield low.bit_length() - 1\n"
     "        mask ^= low\n",
     "        top = mask.bit_length() - 1\n"
     "        yield top\n"
     "        mask ^= 1 << top\n", (_COHERENCE,)),
    ("l2-evict-clears-wrong-sharer-bit", _L2,
     "        entry.sharers &= ~(1 << core)\n",
     "        entry.sharers &= ~(2 << core)\n", (_COHERENCE,)),
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
    # Loop fixed points in the shadow warm-up.
    ("warm-skip-replays-nothing", _SHADOW,
     "period = [(at, reads[at]) for at in range(i - p, i) if at in reads]",
     "period = []", (_FIXED + "test_store_to_a_code_line[4096]",)),
    ("warm-collapse-past-owner", _SHADOW,
     "                    if entry.owner is None:\n",
     "                    if True:\n",
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
    # Compact fast-forward intervals: typed flat columns with per-block
    # end offsets, the shared load-line column, stores kept as their
    # values' 64-bit patterns, and the column blob codec.
    ("trace-load-end-off-by-one", "src/repro/sample/engine.py",
     "        load_ends.append(len(load_addrs))\n",
     "        load_ends.append(len(load_addrs) + 1)\n", (_DECODED,)),
    # (One ``last`` for the whole interval: an op repeating the one
    # before it is dropped across blocks, and across a block's loads and
    # stores.)
    ("trace-load-lines-across-blocks", _TRACE,
     "            for load_end, store_end in zip(self.load_ends, "
     "self.store_ends):\n"
     "                last = -1\n"
     "                for addr in load_addrs[load_start:load_end]:\n"
     "                    line = addr // line_size\n"
     "                    if line != last:\n"
     "                        last = line\n"
     "                        ops.append(index.setdefault(line, len(index))"
     " << 1)\n"
     "                # A store to the line just loaded upgrades it "
     "(S -> M).\n"
     "                last = -1\n",
     "            last = -1\n"
     "            for load_end, store_end in zip(self.load_ends, "
     "self.store_ends):\n"
     "                for addr in load_addrs[load_start:load_end]:\n"
     "                    line = addr // line_size\n"
     "                    if line != last:\n"
     "                        last = line\n"
     "                        ops.append(index.setdefault(line, len(index))"
     " << 1)\n",
     (_EAGER + "test_load_kept_once_only_within_its_block",
      _EAGER + "test_store_to_a_line_its_own_block_loaded")),
    ("trace-land-bytes-one-late", _TRACE,
     "page[off:stop] = bits[at:at + size]",
     "page[off:stop] = bits[at + 1:at + 1 + size]", (_DECODED,)),
    ("trace-land-whole-pattern", _TRACE,
     "        size = kind & STORE_SIZE\n", "        size = 8\n",
     (_ROUNDTRIP + "test_stores_raw_matches_flatmemory_encoding",)),
    ("trace-store-kind-drops-fp", _TRACE,
     "self.store_kinds.append(size | _FP if fp else size)",
     "self.store_kinds.append(size)", (_LAYOUT,)),
    ("trace-store-fp-int-accepted", _TRACE,
     "        if type(value) is not float or size != 8:\n",
     "        if size != 8:\n",
     ("tests/sample/test_trace.py::"
      "test_unrepresentable_store_is_an_error[8-3-1]",)),
    ("trace-codec-drops-column", _TRACE,
     "        for name, __ in _COLUMNS:\n            yield getattr(iv, name)",
     "        for name, __ in _COLUMNS[1:]:\n            yield getattr(iv, name)",
     (_ROUNDTRIP + "test_encode_decode_roundtrip", _LAYOUT)),
    ("trace-reg-delta-by-value", _TRACE,
     "                                   or _bits(old) != _bits(new)):",
     "                                   or old != new):",
     (_REGS + "test_negative_zero_is_a_delta",
      _ROUNDTRIP + "test_negative_zero_register_keeps_its_sign")),
    ("trace-reg-kind-dropped", _TRACE,
     "            yield index, (_DOUBLE.unpack(raw)[0] if kind & _FP\n"
     "                          else int.from_bytes(",
     "            yield index, (int.from_bytes(",
     (_REGS + "test_roundtrip",
      _ROUNDTRIP + "test_negative_zero_register_keeps_its_sign")),
    # One fp semantics: the ALU table's FTOI is total, and the oracle
    # compares bits.
    ("ftoi-nonfinite-raises", "src/repro/isa/opcodes.py",
     '"0 if not isfinite({x}) else "', '"0 if {x} != {x} else "',
     ("tests/isa/test_opcodes.py::"
      "test_ftoi_of_non_finite_is_zero_on_every_machine",)),
    ("oracle-compares-by-value", "tests/bits.py",
     "        return float, _DOUBLE.pack(value)",
     "        return float, value",
     ("tests/tflex/test_random_programs.py::"
      "test_oracle_compares_bits_not_values",)),
    ("trace-codec-ignores-lengths", _TRACE,
     "        interval.check()\n", "",
     ("tests/sample/test_trace.py::TestPrewarmPartition::"
      "test_damaged_blob_gets_exactly_one_recorder[lengths-disagree]",)),
    # The interval that ends the program is not warmed.
    ("warm-tail-restored", "src/repro/sample/engine.py",
     "        if not interval.finished:\n            self.ghist =",
     "        if True:\n            self.ghist =",
     ("tests/sample/test_trace.py::"
      "test_the_interval_that_ends_the_program_is_not_warmed",)),
    # One edge driver: fault-injected runs take the full-detail path.
    # (Summing the segment spans for ``cycles`` is no bug: a survivor is
    # composed at its predecessor's failure, so the spans tile the run.)
    ("driver-num-cores-requested", _SIMULATE,
     "    granted = len(final.core_ids)\n", "    granted = ncores\n",
     (_KILL + "test_recovers_and_verifies",
      _RESIL_RUN + "TestBootFaults::test_dead_core_shrinks_composition")),
    ("driver-cycles-last-segment", _SIMULATE,
     "        stats.cycles = system.queue.now\n",
     "        stats.cycles = final.stats.cycles\n",
     (_KILL + "test_recovers_and_verifies",)),
    ("driver-segments-not-merged", _SIMULATE,
     "    if engine.segments:\n", "    if len(engine.segments) > 1:\n",
     (_KILL + "test_recovers_and_verifies",)),
    ("driver-resil-payload-without-faults", _SIMULATE,
     "    if schedule:\n        result.resil", "    if True:\n        result.resil",
     (_RESIL_RUN + "TestEmptyScheduleEquivalence::"
      "test_no_resil_payload_without_faults",)),
    ("driver-trips-priced-as-tflex", _SIMULATE,
     "params = EnergyParams.trips() if spec.trips else None",
     "params = None",
     ("tests/harness/test_golden.py::test_driver_matches_golden[table2]",)),
    # One spec contract: JobSpec decides which axes combine.
    ("spec-trips-keeps-sampling", "src/repro/exec/spec.py",
     "sampling=() if trips else _freeze_overrides(sampling)",
     "sampling=_freeze_overrides(sampling)",
     (_AXES + "test_pair[sampling+trips]",)),
    ("spec-sampling-items-unchecked", "src/repro/exec/spec.py",
     "            SamplingConfig.from_dict(dict(self.sampling))\n", "",
     (_AXES + "TestSamplingContract::"
      "test_malformed_sampling_rejected_at_construction[ff]",)),
    ("spec-faults-on-trips", "src/repro/exec/spec.py",
     "            if not tflex:\n                raise ValueError(\n"
     "                    \"fault injection",
     "            if False:\n                raise ValueError(\n"
     "                    \"fault injection",
     (_AXES + "test_pair[faults+trips]",)),
    # One sampling rule, in SamplingConfig; fast-forward traces follow
    # the result store: off while it is off, whatever was set before.
    ("sampling-warmup-vs-window-unchecked", "src/repro/sample/config.py",
     "        if self.warmup_blocks >= self.window_blocks:\n",
     "        if False:\n",
     (_AXES + "TestSamplingContract::"
      "test_malformed_sampling_rejected_at_construction[warmup-vs-window]",)),
    ("cli-traces-ignore-no-cache", _TRACE,
     '    return None if store is None else store.root / "traces"\n',
     '    return (pathlib.Path(".repro-cache") if store is None\n'
     '            else store.root) / "traces"\n',
     (_NO_CACHE, "tests/harness/test_cache_hermetic.py::"
      "test_storeless_sampled_run_leaves_cwd_empty")),
    ("store-keeps-trace-override", _RUNNER,
     "    if traces is not None:\n        traces.reset_ff_trace()\n",
     "",
     (_NO_CACHE,)),
    # The runner's hash-keyed batch is the one dedup: equal specs of
    # different types (1, 1.0) are different jobs.
    ("runner-batch-keyed-by-spec", _RUNNER,
     "    return _prewarm({spec_hash(spec): spec for spec in specs}, jobs,\n",
     "    return _prewarm({spec_hash(spec): spec\n"
     "                     for spec in dict.fromkeys(specs)}, jobs,\n",
     ("tests/harness/test_runner_store.py::TestSpecKeyedCache::"
      "test_batch_keyed_by_hash_not_equality",)),
    # A warm sweep hashes each spec once and reads each record once:
    # neither the store read nor the read-back hashes again, and the
    # read-back notes no memory hit.
    ("runner-read-back-through-run-spec", _RUNNER,
     "    return [_CACHE[key] for key in keys]\n",
     "    return [run_spec(spec) for spec in specs]\n",
     (_HASHED_ONCE, "tests/harness/test_runner_store.py::"
      "TestCacheHitCounts::test_cold_warm_store_and_warm_memory")),
    ("runner-store-read-rehashes", _RUNNER,
     "        payload = store.load(spec, key) if store is not None else None\n",
     "        payload = store.load(spec) if store is not None else None\n",
     (_HASHED_ONCE,)),
    # A named command's misuse reads as the full parser's.
    ("cli-one-command-parser-prints-its-own-error", "src/repro/cli.py",
     "    def error(self, message):\n        raise _Misuse(message)\n",
     "    pass\n",
     ("tests/test_cli.py::TestOneCommandParser::"
      "test_misuse_reads_as_the_full_parser[fig6_stray]",)),
    # The failure reason travels with the event.
    ("exec-in-process-failure-as-crash", "src/repro/exec/executor.py",
     '            reason = "exception"\n', '            reason = "crash"\n',
     ("tests/exec/test_executor.py::TestRetryObservability::"
      "test_serial_retry_counts_exceptions",)),
    # The pool's poll blocks on replies and deaths, with no tick: an
    # idle worker's death must wake it, a stop must escalate to SIGKILL,
    # and a worker found dead is drained once more before it counts as
    # a crash.
    ("pool-wait-skips-idle-sentinels", _POOL,
     "        ready += [pw.process.sentinel for pw in self.workers]\n",
     "        ready += [pw.process.sentinel for pw in self.workers"
     " if pw.busy]\n",
     ("tests/exec/test_pool.py::TestPoolUnit::"
      "test_an_idle_worker_death_wakes_poll",)),
    ("pool-stop-never-kills", _POOL,
     "                process.kill()\n", "                pass\n",
     ("tests/exec/test_pool.py::TestWatchdog::"
      "test_sigterm_ignoring_worker_is_killed_within_grace",)),
    ("pool-no-drain-after-death", _POOL,
     "                if self._drain(pw, events, now) is False:\n"
     "                    continue        # ... or closed its pipe: replaced\n",
     "",
     ("tests/exec/test_executor.py::TestSendExitRace::"
      "test_result_sent_just_before_exit_is_not_a_crash",)),
    # `cache gc --max-bytes` keeps a newest-first prefix: a small old
    # record never outlives a newer one that did not fit.
    ("gc-keeps-older-record-that-fits", "src/repro/exec/gc.py",
     "            kept = 0\n"
     "            for __mtime, size, __path, __kind in survivors:\n"
     "                if size > budget:\n"
     "                    break\n"
     "                budget -= size\n"
     "                kept += 1\n"
     "            doomed += survivors[kept:]\n"
     "            survivors = survivors[:kept]\n",
     "            kept = []\n"
     "            for entry in survivors:\n"
     "                if entry[1] <= budget:\n"
     "                    budget -= entry[1]\n"
     "                    kept.append(entry)\n"
     "                else:\n"
     "                    doomed.append(entry)\n"
     "            survivors = kept\n",
     ("tests/exec/test_gc.py::TestGcCache::"
      "test_size_budget_never_keeps_an_older_record",)),
    # --sample is a TFlex axis: any other machine fails up front.
    ("cli-sample-on-any-machine", "src/repro/cli.py",
     '        if getattr(args, "machine", "tflex") != "tflex":\n',
     "        if False:\n",
     ("tests/test_cli.py::TestUpFrontValidation::"
      "test_sample_requires_tflex[trips]",
      "tests/test_cli.py::TestUpFrontValidation::"
      "test_sample_requires_tflex[ooo]")),
    # A chip is freed by reference counting: a core pointing back at
    # its system, or a window that keeps its processor composed, makes
    # every discarded system wait for the cyclic collector.
    ("core-keeps-system", "src/repro/tflex/core.py",
     "        self.id = core_id\n",
     "        self.system = system\n        self.id = core_id\n",
     (_LIFECYCLE + "[tflex-1]",)),
    ("window-keeps-processor", "src/repro/sample/engine.py",
     "        system.decompose(proc)\n", "",
     (_LIFECYCLE + "[sampled-record-replay]",)),
    # The fast-forward pays for each block once: live blocks land their
    # stores by the replay's page-slice code, and the D-cache warm-up
    # walks one op stream, stopping only for I-cache L2 reads.
    ("live-lands-whole-pattern", "src/repro/sample/engine.py",
     "            land_stores(mem, interval, first)\n",
     "            for at in range(first, len(store_addrs)):\n"
     "                mem.write_bytes(store_addrs[at],\n"
     "                                interval.store_bits[8 * at:8 * at + 8])"
     "\n",
     ("tests/sample/test_live_loop.py::test_store_edges_and_a_late_path",)),
    ("landing-one-run-a-page", _TRACE,
     "                    start = marked.find(1, stop)\n",
     "                    start = -1\n",
     (_ROUNDTRIP + "test_stores_raw_matches_flatmemory_encoding",)),
    ("walk-icache-reads-after-block", _SHADOW,
     "            stop = ends[i - 1] if i else 0\n",
     "            stop = ends[i]\n",
     (_EAGER + "test_icache_reads_between_store_only_blocks",)),
]

#: Rows that survive on purpose: id -> why no test can see the bug.
JUSTIFIED: dict[str, str] = {}

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

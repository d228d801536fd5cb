"""CLI smoke tests (fast paths only; full figures live in benchmarks/)."""

import pytest

from repro.cli import build_parser, main
from repro.harness import clear_cache, configure_cache
from repro.sample.trace import configure_ff_trace, trace_root


@pytest.fixture(autouse=True)
def _store_off_after(tmp_path, monkeypatch):
    """main() applies --cache-dir/--no-cache globally (result store and
    fast-forward traces); keep any store a command enables inside
    tmp_path, start from a cold in-process cache (so store behaviour is
    deterministic), and restore the hermetic default afterwards."""
    monkeypatch.chdir(tmp_path)
    clear_cache()
    yield
    clear_cache()
    configure_cache(enabled=False)


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for argv in (["list"], ["run", "conv"], ["sweep", "conv"],
                     ["disasm", "conv"], ["fig5"], ["fig6"], ["fig10"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "conv"])
        assert args.cores == 8
        assert args.machine == "tflex"
        assert args.scale == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_exec_flags(self):
        args = build_parser().parse_args(
            ["fig6", "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True
        args = build_parser().parse_args(["sweep", "conv", "--jobs", "2"])
        assert args.jobs == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "conv" in out
        assert "spec_fp" in out

    def test_run_tflex(self, capsys, tmp_path):
        assert main(["run", "dither", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "tflex-2" in out
        assert "cycles" in out
        # The default store is .repro-cache in the (tmp) working
        # directory.
        assert list((tmp_path / ".repro-cache").rglob("*.json"))

    def test_run_no_cache(self, capsys, tmp_path):
        assert main(["run", "dither", "--cores", "2", "--no-cache"]) == 0
        assert "tflex-2" in capsys.readouterr().out
        assert not (tmp_path / ".repro-cache").exists()

    def test_cache_dir_collides_with_file(self, capsys, tmp_path):
        (tmp_path / "notadir").write_text("")
        assert main(["run", "dither", "--cache-dir", "notadir"]) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err
        assert "Traceback" not in err

    def test_run_ooo(self, capsys):
        assert main(["run", "dither", "--machine", "ooo"]) == 0
        assert "OoO baseline" in capsys.readouterr().out

    def test_run_trips(self, capsys):
        assert main(["run", "dither", "--machine", "trips"]) == 0
        assert "trips" in capsys.readouterr().out

    def test_disasm(self, capsys):
        assert main(["disasm", "tblook"]) == 0
        out = capsys.readouterr().out
        assert "block main_0" in out
        assert "LDD" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "dither", "--cores", "4", "--blocks", "6"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "blocks committed" in out


class TestUpFrontValidation:
    """Bad flag combinations die in argparse with an actionable
    message, before any simulation starts."""

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        """Regression: --jobs 0 / --jobs -3 silently ran serial."""
        err = self._error(capsys, ["fig6", "--jobs", jobs])
        assert f"--jobs must be >= 1, got {jobs}" in err

    @pytest.mark.parametrize("flag", [["--no-pool"], ["--pool"],
                                      ["--schedule", "fifo"]])
    def test_removed_exec_knobs_are_unknown(self, capsys, flag):
        err = self._error(capsys, ["fig6", "--jobs", "2", *flag])
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag", [["--baseline", "x"],
                                      ["--write-baseline"]])
    def test_removed_lint_baseline_flags_are_unknown(self, capsys, flag):
        err = self._error(capsys, ["lint", *flag])
        assert "unrecognized arguments" in err

    def test_sample_knobs_require_sample(self, capsys):
        err = self._error(capsys, ["run", "conv", "--sample-ff", "100"])
        assert "no effect without --sample" in err

    def test_sample_ff_bounds(self, capsys):
        err = self._error(capsys, ["run", "conv", "--sample",
                                   "--sample-ff", "0"])
        assert "ff_blocks must be >= 1, got 0" in err

    def test_sample_warmup_vs_window(self, capsys):
        err = self._error(capsys, ["run", "conv", "--sample",
                                   "--sample-warmup", "50"])
        assert "warmup_blocks (50) must be smaller than window_blocks (40)" \
            in err

    @pytest.mark.parametrize("machine", ["trips", "ooo"])
    def test_sample_requires_tflex(self, capsys, machine):
        """Regression: --machine ooo dropped --sample without a word,
        and --machine trips ran in full detail after a stderr note."""
        err = self._error(capsys, ["run", "conv", "--machine", machine,
                                   "--sample"])
        assert f"--machine {machine}" in err

    def test_inject_bad_grammar(self, capsys):
        err = self._error(capsys, ["run", "conv", "--inject", "bogus"])
        assert "not a fault spec" in err

    def test_inject_kill_missing_cycle(self, capsys):
        err = self._error(capsys, ["run", "conv", "--inject", "kill:2"])
        assert "missing '@CYCLE'" in err

    def test_inject_requires_tflex(self, capsys):
        err = self._error(capsys, ["run", "conv", "--machine", "trips",
                                   "--inject", "dead:0"])
        assert "--machine trips" in err

    def test_inject_conflicts_with_sample(self, capsys):
        err = self._error(capsys, ["run", "conv", "--sample",
                                   "--inject", "dead:0"])
        assert "cannot combine with --sample" in err

    def test_inject_core_out_of_range(self, capsys):
        err = self._error(capsys, ["run", "conv", "--cores", "2",
                                   "--inject", "dead:7"])
        assert "cores 0..1" in err

    def test_inject_leaving_no_survivor(self, capsys):
        err = self._error(capsys, ["run", "conv", "--cores", "2",
                                   "--inject", "dead:0",
                                   "--inject", "dead:1"])
        assert "no survivor" in err

    def test_resil_cores_must_be_power_of_two(self, capsys):
        err = self._error(capsys, ["resil", "--cores", "5"])
        assert "power of two" in err

    def test_resil_max_dead_bounds(self, capsys):
        err = self._error(capsys, ["resil", "--max-dead", "0"])
        assert "--max-dead" in err
        err = self._error(capsys, ["resil", "--cores", "4",
                                   "--max-dead", "4"])
        assert "--max-dead" in err


    #: every command that names a benchmark, positionally or by --bench
    NAMING = ([[cmd, "{}"] for cmd in ("run", "sweep", "disasm", "timeline",
                                       "profile")]
              + [[cmd, "--bench", "conv", "--bench", "{}"]
                 for cmd in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                             "table2", "search", "resil")])

    @pytest.mark.parametrize("argv", NAMING, ids=lambda argv: argv[0])
    def test_unknown_benchmark_names_the_valid_set(self, capsys, argv):
        """Regression: an unknown name reached the simulator and came
        back as a KeyError traceback (after two attempts and, at
        --jobs 2, a pool boot)."""
        err = self._error(capsys, [a.format("nosuch") for a in argv])
        assert "unknown benchmark 'nosuch'" in err
        assert "choose from 802.11b, 8b10b, a2time" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", NAMING, ids=lambda argv: argv[0])
    def test_near_miss_suggests_the_close_matches(self, capsys, argv):
        err = self._error(capsys, [a.format("gzp") for a in argv])
        assert "unknown benchmark 'gzp'; did you mean gzip?" in err

    @pytest.mark.parametrize("command", ["run", "timeline", "profile"])
    def test_cores_must_be_a_composition_size(self, capsys, command):
        """Regression: --cores 3 ran the doomed job twice and raised
        JobFailed("unsupported core count 3")."""
        err = self._error(capsys, [command, "conv", "--cores", "3"])
        assert "--cores must be a power of two up to 32, got 3" in err

    def test_cores_is_ignored_off_tflex(self, capsys):
        assert main(["run", "dither", "--machine", "ooo", "--cores", "3",
                     "--no-cache"]) == 0


class TestFailedPoint:
    def test_job_failed_is_one_line_and_exit_1(self, capsys, monkeypatch):
        """Regression: a point that exhausted its retries escaped
        main() as a traceback.  The batch's successes stay cached."""
        from repro.harness import run_edge_benchmark, simulate

        real = simulate.simulate_spec

        def failing_worker(spec):
            if spec.ncores == 4:
                raise RuntimeError("boom")
            return real(spec)

        monkeypatch.setattr(simulate, "simulate_spec", failing_worker)
        assert main(["sweep", "dither", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines()[-1] == (
            "repro: dither/tflex-4 failed after 2 attempt(s): "
            "RuntimeError: boom")
        assert "Traceback" not in captured.err
        assert "composition sweep" not in captured.out
        sims = simulate.simulation_count()
        run_edge_benchmark("dither", ncores=2)      # memory hit
        assert simulate.simulation_count() == sims


class TestResilCommands:
    def test_run_with_boot_fault(self, capsys):
        assert main(["run", "dither", "--cores", "4",
                     "--inject", "dead:0", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "faults: 1 injected, 0 recoveries, 1 segments" in out

    def test_run_with_kill_reports_recovery(self, capsys):
        assert main(["run", "conv", "--cores", "4",
                     "--inject", "kill:0@1500", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "faults: 1 injected, 1 recoveries, 2 segments" in out
        assert "core 0 died" in out

    def test_resil_writes_curve_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "figR.json"
        assert main(["resil", "--cores", "4", "--max-dead", "1",
                     "--bench", "dither", "--out", str(out_path),
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure R" in out
        payload = json.loads(out_path.read_text())
        assert payload["dead_counts"] == [0, 1]
        assert len(payload["curve"]) == 2
        assert payload["curve"][0]["mean_relative"] == 1.0


def _registered_subcommands():
    """Every subcommand the parser knows, straight from argparse."""
    import argparse

    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


class TestHelpSmoke:
    """``repro <cmd> --help`` must exit 0 for every registered
    subcommand — the cheapest whole-surface regression net (a typo'd
    flag definition or import error in any command kills its help)."""

    def test_sweep_covers_search(self):
        commands = _registered_subcommands()
        assert "search" in commands
        assert "lint" in commands
        assert len(commands) >= 10

    @pytest.mark.parametrize("command", _registered_subcommands())
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "usage" in out.lower()
        assert command in out

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which may only
    print and exit."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


def _full_parser(argv):
    """What ``main`` did before it built one command's subparser:
    parse and validate with every command registered."""
    from repro.cli import _validate

    parser = build_parser()
    _validate(parser, parser.parse_args(argv))


class TestOneCommandParser:
    """``main`` builds only the named command's subparser; whatever it
    prints — help, or any error with the usage line listing every
    command — is byte for byte what the full parser prints."""

    def test_every_command_is_registered_once(self):
        """``repro.cli`` names the commands without loading
        ``repro.commands``; the two lists agree, in ``--help`` order."""
        from repro import cli, commands

        assert cli.COMMANDS == tuple(commands.COMMANDS) + cli.FIGURES
        assert sorted(cli.COMMANDS) == _registered_subcommands()

    @pytest.mark.parametrize("command", _registered_subcommands())
    def test_subcommand_help_matches_the_full_parser(self, command, capsys):
        argv = [command, "--help"]
        assert (_outcome(capsys, main, argv)
                == _outcome(capsys, _full_parser, argv))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["nosuch"], ["fig6", "stray"], ["fig6", "--jobs", "0"],
        ["fig6", "--sample-ff", "5"], ["fig6", "--jobs", "x"],
        ["run", "conv", "--cores", "3"], ["cache"], ["search", "--eta", "1"]],
        ids=lambda argv: "_".join(argv) or "no-command")
    def test_misuse_reads_as_the_full_parser(self, argv, capsys):
        code, out, err = _outcome(capsys, main, argv)
        assert (code, out, err) == _outcome(capsys, _full_parser, argv)
        assert code in (0, 2)


class TestFFTraceFlags:
    def test_no_cache_disables_traces_unless_asked(self, tmp_path, capsys):
        """--no-cache alone decides: it turns tracing off (whatever the
        process had configured), and a run with a store records its
        trace under ``<cache-dir>/traces``."""
        sampled = ["run", "dither", "--cores", "2", "--sample",
                   "--sample-ff", "64", "--sample-window", "16",
                   "--sample-warmup", "4"]
        configure_ff_trace(enabled=True, cache_dir=tmp_path / "elsewhere")
        assert main([*sampled, "--no-cache"]) == 0
        assert trace_root() is None

        clear_cache()     # else the second run replays from memory
        cache_dir = tmp_path / "store"
        assert main([*sampled, "--cache-dir", str(cache_dir)]) == 0
        assert list((cache_dir / "traces").rglob("*.json.gz"))
        assert not (tmp_path / "elsewhere").exists()
        capsys.readouterr()


class TestCacheGc:
    def _populate(self, root):
        import gzip
        import json
        import os

        records = []
        for i, (sub, name) in enumerate((("ab", "ab1.json"),
                                         ("cd", "cd2.json"))):
            path = root / sub / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"payload": i}))
            records.append(path)
        trace = root / "traces" / "ef" / "ef3.json.gz"
        trace.parent.mkdir(parents=True, exist_ok=True)
        trace.write_bytes(gzip.compress(b"{}"))
        records.append(trace)
        # Ages: 10 days, 5 days, fresh.
        import time

        now = time.time()
        for age_days, path in zip((10, 5, 0), records):
            stamp = now - age_days * 86400
            os.utime(path, (stamp, stamp))
        return records

    def test_gc_by_age(self, tmp_path, capsys):
        root = tmp_path / "cache"
        records = self._populate(root)
        assert main(["cache", "gc", "--cache-dir", str(root),
                     "--max-age-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "scanned 3 entries" in out
        assert "removed 1 entries" in out
        assert not records[0].exists()
        assert records[1].exists() and records[2].exists()

    def test_gc_dry_run_deletes_nothing(self, tmp_path, capsys):
        root = tmp_path / "cache"
        records = self._populate(root)
        assert main(["cache", "gc", "--cache-dir", str(root),
                     "--max-age-days", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 3 entries" in out
        # Dry run lists its victims and touches none of them.
        for path in records:
            assert str(path) in out
            assert path.exists()

    def test_gc_size_budget_keeps_newest(self, tmp_path, capsys):
        root = tmp_path / "cache"
        records = self._populate(root)
        sizes = [p.stat().st_size for p in records]
        budget = sizes[1] + sizes[2]          # newest two fit exactly
        assert main(["cache", "gc", "--cache-dir", str(root),
                     "--max-bytes", str(budget)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert not records[0].exists()
        assert records[1].exists() and records[2].exists()

    def test_gc_bad_size_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", "--max-bytes", "lots"])
        assert excinfo.value.code == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_negative_age_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", "--max-age-days", "-1"])
        assert excinfo.value.code == 2
        assert "--max-age-days" in capsys.readouterr().err

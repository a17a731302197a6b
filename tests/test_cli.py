"""CLI tests: every subcommand, both program sources (file, -e), errors."""

import json
from pathlib import Path

import pytest

from repro.cli import _parse_observer_arg, build_parser, main
from repro.escape.exact import Source
from repro.lang.prelude import prelude_source

APPEND = prelude_source(["append"], "append [1, 2] [3]")
#: A value binding (no arguments to analyze) next to a function.
VALUE_BINDING = "xs = [1, 2]; id y = y; id xs"
PARTITION_SORT = str(Path(__file__).resolve().parents[1] / "examples" / "partition_sort.nml")


@pytest.fixture
def append_file(tmp_path):
    path = tmp_path / "append.nml"
    path.write_text(APPEND)
    return str(path)


class TestRun:
    def test_run_file(self, append_file, capsys):
        assert main(["run", append_file]) == 0
        assert "[1, 2, 3]" in capsys.readouterr().out

    def test_run_inline(self, capsys):
        assert main(["run", "-e", "1 + 2 * 3"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_run_with_metrics(self, capsys):
        assert main(["run", "-e", "[1, 2, 3]", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "heap_allocs: 3" in out

    def test_run_with_gc(self, capsys):
        source = prelude_source(["rev", "iota"], "rev (iota 20)")
        assert main(["run", "-e", source, "--gc", "--gc-threshold", "30", "--metrics"]) == 0
        assert "gc_runs" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.nml"]) == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_error(self, capsys):
        assert main(["run", "-e", "car nil"]) == 1
        assert "car of nil" in capsys.readouterr().err


class TestReportAndAnalyze:
    def test_report(self, append_file, capsys):
        assert main(["report", append_file]) == 0
        out = capsys.readouterr().out
        assert "G(append, 1) = <1,0>" in out
        assert "sharing" in out

    def test_analyze_all_functions(self, append_file, capsys):
        assert main(["analyze", append_file]) == 0
        out = capsys.readouterr().out
        assert "G(append, 1)" in out and "G(append, 2)" in out

    def test_analyze_single_function(self, capsys):
        source = prelude_source(["ps"])
        assert main(["analyze", "-e", source, "--function", "ps"]) == 0
        out = capsys.readouterr().out
        assert "G(ps, 1) = <1,0>" in out
        assert "G(append" not in out

    def test_analyze_with_sharing(self, capsys):
        assert main(["analyze", "-e", prelude_source(["ps"]), "--function", "ps", "--sharing"]) == 0
        assert "unshared" in capsys.readouterr().out

    def test_analyze_local(self, capsys):
        source = prelude_source(["map", "pair"])
        assert main(["analyze", "-e", source, "--local", "map pair [[1, 2], [3, 4]]"]) == 0
        out = capsys.readouterr().out
        assert "L(map, 1)" in out and "L(map, 2)" in out

    def test_parse_error_reported(self, capsys):
        assert main(["analyze", "-e", "f x = ((("]) == 1
        assert "error" in capsys.readouterr().err


class TestObserve:
    def test_observe_no_escape(self, append_file, capsys):
        assert main(["observe", append_file, "append", "[1, 2]", "[3]", "-i", "1"]) == 0
        assert "<0,0>" in capsys.readouterr().out

    def test_observe_escape(self, append_file, capsys):
        assert main(["observe", append_file, "append", "[1, 2]", "[3]", "-i", "2"]) == 0
        out = capsys.readouterr().out
        assert "<1,1>" in out and "level(s) 1" in out

    def test_observe_function_arg(self, capsys):
        source = prelude_source(["map", "pair"])
        assert main(
            ["observe", "-e", source, "map", "@pair", "[[1, 2], [3, 4]]", "-i", "2"]
        ) == 0
        assert "<0,0>" in capsys.readouterr().out

    def test_observe_json(self, append_file, capsys):
        assert main(
            ["observe", append_file, "append", "[1, 2]", "[3]", "-i", "2", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["function"] == "append"
        assert doc["param_index"] == 2
        assert doc["escapement"] == "<1,1>"
        assert doc["escaped"] is True
        assert doc["escaped_levels"] == [1]

    def test_observe_json_no_escape(self, append_file, capsys):
        assert main(
            ["observe", append_file, "append", "[1, 2]", "[3]", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["escaped"] is False
        assert doc["escaped_levels"] == []


class TestObserverArgParsing:
    def test_at_prefix_is_nml_source(self):
        parsed = _parse_observer_arg("@pair")
        assert isinstance(parsed, Source)
        assert parsed == "pair"

    def test_python_literals(self):
        assert _parse_observer_arg("[1, [2], 3]") == [1, [2], 3]
        assert _parse_observer_arg("42") == 42
        assert _parse_observer_arg("True") is True

    def test_invalid_literal_raises(self):
        with pytest.raises((ValueError, SyntaxError)):
            _parse_observer_arg("not a literal")


class TestSpines:
    def test_spines(self, capsys):
        assert main(["spines", "[[1, 2], [3]]"]) == 0
        out = capsys.readouterr().out
        assert "2 spine(s)" in out

    def test_spines_flat(self, capsys):
        assert main(["spines", "[1, 2, 3]"]) == 0
        assert "1 spine(s), 3 cell(s)" in capsys.readouterr().out


class TestOptimize:
    def test_reuse(self, capsys):
        assert main(["optimize", "-e", prelude_source(["append"]), "--reuse", "append:1"]) == 0
        out = capsys.readouterr().out
        assert "dcons" in out and "append_reuse" in out

    def test_reuse_default_index(self, capsys):
        assert main(["optimize", "-e", prelude_source(["rev"]), "--reuse", "rev"]) == 0
        assert "rev_reuse" in capsys.readouterr().out

    def test_stack(self, capsys):
        source = prelude_source(["ps"], "ps [5, 2, 7]")
        assert main(["optimize", "-e", source, "--stack"]) == 0
        assert "cons site(s) moved" in capsys.readouterr().out

    def test_block(self, capsys):
        source = prelude_source(["ps", "create_list"], "ps (create_list 5)")
        assert main(["optimize", "-e", source, "--block", "create_list"]) == 0
        out = capsys.readouterr().out
        assert "create_list_block" in out

    def test_unsound_reuse_refused(self, capsys):
        assert main(["optimize", "-e", prelude_source(["append"]), "--reuse", "append:2"]) == 1
        assert "unsound" in capsys.readouterr().err


class TestMachineFlag:
    def test_run_on_machine(self, capsys):
        source = prelude_source(["ps"], "ps [5, 2, 7, 1, 3, 4]")
        assert main(["run", "-e", source, "--machine", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "[1, 2, 3, 4, 5, 7]" in out
        assert "heap_allocs: 64" in out  # same count as the interpreter

    def test_machine_with_gc(self, capsys):
        source = prelude_source(["rev", "iota"], "rev (iota 25)")
        assert main(
            ["run", "-e", source, "--machine", "--gc", "--gc-threshold", "40", "--metrics"]
        ) == 0
        assert "gc_runs" in capsys.readouterr().out


class TestDisasm:
    def test_disassembles_program(self, append_file, capsys):
        assert main(["disasm", append_file]) == 0
        out = capsys.readouterr().out
        assert "closure append(x)" in out
        assert "branch" in out
        assert "push_prim cons" in out


class TestArgumentParsing:
    """The CLI never expands an abbreviated long option, and ``--engine``
    is gone from every subcommand."""

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_d_is_not_deadline_ms(self, command, append_file, capsys):
        # argparse would otherwise read ``--d 2`` as ``--deadline-ms 2``.
        with pytest.raises(SystemExit) as exit_info:
            main([command, append_file, "--d", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --d 2" in capsys.readouterr().err

    def test_batch_d_sets_the_chain_bound(self, append_file, capsys):
        assert main(["batch", append_file, "--no-store", "--d", "2", "--json"]) == 0
        assert [f["d"] for f in json.loads(capsys.readouterr().out)["files"]] == [2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "{file}"],
            ["analyze", "{file}"],
            ["optimize", "{file}"],
            ["trace", "{file}"],
            ["batch", "{file}", "--no-store"],
            ["diff", "snapshot", "{file}", "--out", "{dir}", "--no-store"],
            ["serve"],
            ["check", "{file}"],
        ],
        ids=lambda argv: " ".join(a for a in argv if "{" not in a),
    )
    def test_engine_flag_is_rejected(self, argv, append_file, tmp_path, capsys):
        # Parse only: were the flag accepted, ``serve`` would start serving.
        args = [a.format(file=append_file, dir=tmp_path / "out") for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(args + ["--engine", "worklist"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestRobustFlags:
    def test_robust_exact_exit_zero(self, append_file, capsys):
        assert main(["analyze", append_file, "--robust"]) == 0
        out = capsys.readouterr().out
        assert "G(append, 1) = <1,0>" in out
        assert "degraded" not in out

    def test_budget_flag_implies_robust_and_exit_three(self, append_file, capsys):
        assert main(["analyze", append_file, "--max-iterations", "1"]) == 3
        captured = capsys.readouterr()
        assert "[degraded: iteration-budget-exceeded]" in captured.out
        assert "warning: degraded" in captured.err
        # The degraded answer is the sound worst case, not a crash.
        assert "G(append, 1) = <1,1>" in captured.out

    def test_strict_turns_degradation_into_an_error(self, append_file, capsys):
        assert main(["analyze", append_file, "--max-iterations", "1", "--strict"]) == 1
        assert "error: degraded" in capsys.readouterr().err

    def test_strict_with_exact_result_is_fine(self, append_file):
        assert main(["analyze", append_file, "--robust", "--strict"]) == 0

    def test_deadline_flag(self, append_file, capsys):
        assert main(["analyze", append_file, "--deadline-ms", "0"]) == 3
        assert "deadline-exceeded" in capsys.readouterr().out

    def test_robust_local_test(self, append_file, capsys):
        assert (
            main(["analyze", append_file, "--robust", "--local", "append [1] [2]"]) == 0
        )
        assert "L(append" in capsys.readouterr().out

    def test_optimize_robust(self, capsys):
        source = prelude_source(["append"], "append [1, 2] [3]")
        code = main(["optimize", "-e", source, "--robust"])
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert "applied:" in out or "no storage optimization" in out

    def test_optimize_robust_strict_degraded(self, capsys):
        source = prelude_source(["ps"], "ps [5, 2, 7]")
        code = main(["optimize", "-e", source, "--robust", "--max-steps", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert "degraded" in captured.err

    def test_robust_answers_every_function_past_a_value_binding(self, capsys):
        assert main(["analyze", "-e", VALUE_BINDING, "--robust"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "xs: xs takes no arguments (type int list)"
        assert out[1].startswith("G(id, 1) = <1,0>")

    def test_robust_json_records_a_value_binding_as_serve_does(self, capsys):
        from repro.serve import AnalysisService

        assert main(["analyze", "-e", VALUE_BINDING, "--robust", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        _, served = AnalysisService().handle("analyze", {"source": VALUE_BINDING})
        assert doc["results"][0] == served["results"][0] == {
            "function": "xs",
            "error": "xs takes no arguments (type int list)",
        }
        assert [entry["function"] for entry in doc["results"]] == ["xs", "id"]
        assert doc["degraded"] is False

    def test_robust_sharing_prints_what_the_exact_analysis_prints(self, capsys):
        assert main(["analyze", PARTITION_SORT, "--sharing"]) == 0
        exact = capsys.readouterr().out
        assert "unshared" in exact
        assert main(["analyze", PARTITION_SORT, "--sharing", "--robust"]) == 0
        assert capsys.readouterr().out == exact

    def test_sharing_under_a_spent_deadline_solves_nothing(self, capsys):
        # The Theorem 2 lines read the result type without solving, so a
        # deadline that degrades every answer also bounds the command.
        args = ["analyze", PARTITION_SORT, "--deadline-ms", "0", "--sharing", "--stats"]
        assert main(args) == 3
        stats = capsys.readouterr().out.splitlines()[-1]
        assert "solve cache 0 hit(s) / 0 miss(es)" in stats
        assert "scc cache 0 hit(s) / 0 miss(es)" in stats
        assert "0 fixpoint iteration(s), 0 eval step(s)" in stats

    def test_optimize_robust_prints_the_same_bytes_every_run(self, capsys):
        outputs = []
        for _ in range(2):
            main(["optimize", PARTITION_SORT, "--robust"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "-- degraded" in outputs[0] and "spent" not in outputs[0]

    def test_run_sanitize_clean_program(self, append_file, capsys):
        assert main(["run", append_file, "--sanitize"]) == 0
        assert "[1, 2, 3]" in capsys.readouterr().out


class TestJsonOutput:
    def test_analyze_json(self, append_file, capsys):
        assert main(["analyze", append_file, "--json", "--stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "exact"
        by_param = {(r["function"], r["param_index"]): r for r in doc["results"]}
        assert by_param[("append", 1)]["result"] == "<1,0>"
        assert by_param[("append", 2)]["result"] == "<1,1>"
        assert doc["stats"]["solve_misses"] == 1

    def test_analyze_json_local(self, capsys):
        source = prelude_source(["map", "pair"])
        assert main(
            ["analyze", "-e", source, "--local", "map pair [[1, 2], [3, 4]]", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(r["kind"] == "local" for r in doc["results"])
        assert len(doc["results"]) == 2

    def test_analyze_json_robust_degraded(self, append_file, capsys):
        assert main(
            ["analyze", append_file, "--max-iterations", "1", "--json"]
        ) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "robust"
        assert doc["degraded"] is True
        first = doc["results"][0]
        assert first["degraded"] is True
        assert first["degradation"]["reason"] == "iteration-budget-exceeded"

    def test_analyze_json_robust_exact(self, append_file, capsys):
        assert main(["analyze", append_file, "--robust", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degraded"] is False
        assert all(r["degraded"] is False for r in doc["results"])

    def test_report_json(self, append_file, capsys):
        assert main(["report", append_file, "--json", "--stats"]) == 0
        doc = json.loads(capsys.readouterr().out)
        append = next(f for f in doc["functions"] if f["name"] == "append")
        assert append["is_function"] is True
        assert append["converged"] is True
        assert 2 <= append["iterations"] <= 3
        assert append["results"][0]["result"] == "<1,0>"
        assert "sharing" in doc and "stats" in doc


class TestTraceAndProfile:
    def test_trace_command_emits_valid_jsonl(self, append_file, capsys):
        from repro.obs.events import validate_trace

        assert main(["trace", append_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert validate_trace(events) == len(events)
        assert any(e["type"] == "fixpoint_converged" for e in events)

    def test_trace_command_out_file(self, append_file, tmp_path, capsys):
        from repro.obs.events import validate_trace
        from repro.obs.sinks import read_trace

        out = tmp_path / "trace.jsonl"
        assert main(["trace", append_file, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wrote" in captured.err
        events = read_trace(out)
        assert validate_trace(events) == len(events)

    def test_trace_command_with_run_records_runtime(self, append_file, capsys):
        assert main(["trace", append_file, "--run"]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert any(e["type"] == "cell_alloc" for e in events)

    def test_trace_command_profile_to_stderr(self, append_file, capsys):
        assert main(["trace", append_file, "--profile"]) == 0
        assert "=== profile ===" in capsys.readouterr().err

    def test_analyze_trace_flag_writes_jsonl(self, append_file, tmp_path):
        from repro.obs.events import validate_trace
        from repro.obs.sinks import read_trace

        out = tmp_path / "analyze.jsonl"
        assert main(["analyze", append_file, "--trace", str(out)]) == 0
        events = read_trace(out)
        assert validate_trace(events) == len(events)
        assert any(e["type"] == "escape_test" for e in events)

    def test_analyze_profile_flag(self, append_file, capsys):
        assert main(["analyze", append_file, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "G(append, 1)" in captured.out
        assert "=== profile ===" in captured.err

    def test_run_trace_flag_records_runtime(self, append_file, tmp_path):
        from repro.obs.sinks import read_trace

        out = tmp_path / "run.jsonl"
        assert main(["run", append_file, "--trace", str(out)]) == 0
        events = read_trace(out)
        assert any(e["type"] == "cell_alloc" for e in events)
        assert any(e["type"] == "span_end" and e["name"] == "run" for e in events)

    def test_optimize_profile_flag(self, capsys):
        source = prelude_source(["ps"], "ps [5, 2, 7]")
        assert main(["optimize", "-e", source, "--robust", "--profile"]) in (0, 3)
        assert "=== profile ===" in capsys.readouterr().err

    def test_replayed_iteration_table_matches_live_analysis(
        self, append_file, tmp_path
    ):
        """End to end through the CLI: the trace file alone reproduces the
        fixpoint iteration table without re-running the analysis."""
        from repro.escape.analyzer import EscapeAnalysis
        from repro.lang.parser import parse_program
        from repro.obs.profile import iteration_table
        from repro.obs.sinks import read_trace
        from pathlib import Path

        out = tmp_path / "trace.jsonl"
        assert main(["trace", append_file, "--out", str(out)]) == 0

        analysis = EscapeAnalysis(parse_program(Path(append_file).read_text()))
        analysis.global_all("append")
        live = analysis.last_solved.trace("append")

        row = iteration_table(read_trace(out))["append"]
        assert row.iterations == live.iterations
        assert row.converged is live.converged
        assert row.values == [str(fp) for fp in live.fingerprints]


class TestExitCodeTaxonomy:
    """The one exit-code vocabulary every subcommand shares: 0 ok, 1 error,
    3 degraded (robust fallback answered), 4 checker findings."""

    def test_constants(self):
        from repro.cli import EXIT_DEGRADED, EXIT_ERROR, EXIT_FINDINGS, EXIT_OK

        assert (EXIT_OK, EXIT_ERROR, EXIT_DEGRADED, EXIT_FINDINGS) == (0, 1, 3, 4)

    def test_help_epilog_documents_all_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        for fragment in ["0 ok", "1 error", "3 degraded", "4 findings"]:
            assert fragment in out

    def test_ok(self, capsys):
        assert main(["run", "-e", "1 + 1"]) == 0
        capsys.readouterr()

    def test_error(self, capsys):
        assert main(["run", "-e", "car nil"]) == 1
        capsys.readouterr()

    def test_degraded(self, append_file, capsys):
        assert main(["analyze", append_file, "--max-iterations", "1"]) == 3
        capsys.readouterr()

    def test_findings(self, capsys):
        source = "f x = dcons (cons 1 nil) 2 x; f [1]"
        assert main(["check", "-e", source]) == 4
        capsys.readouterr()


class TestCanonicalJson:
    """Every machine-readable emission is canonical: sorted keys, stable
    bytes.  The cross-seed test runs real subprocesses because
    PYTHONHASHSEED is frozen at interpreter start."""

    def test_json_outputs_have_sorted_keys(self, append_file, capsys):
        for args in (
            ["report", append_file, "--json"],
            ["analyze", append_file, "--json"],
            ["check", append_file, "--json"],
            ["batch", append_file, "--no-store", "--json"],
        ):
            assert main(args) in (0, 4)
            doc = json.loads(capsys.readouterr().out)
            assert list(doc) == sorted(doc)

    def test_observe_json_sorted(self, append_file, capsys):
        assert main(["observe", append_file, "append", "[1]", "[2]"]) == 0
        capsys.readouterr()
        assert main(
            ["observe", append_file, "append", "[1]", "[2]", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == sorted(doc)

    # check/batch --json carry wall-clock timings, so full byte identity
    # is only demanded of the timing-free outputs (snapshot artifacts pin
    # the corpus-scale version of this property in test_diff.py).
    @pytest.mark.parametrize(
        "args",
        [
            ["report", "{path}", "--json"],
            ["analyze", "{path}", "--json"],
        ],
        ids=["report", "analyze"],
    )
    def test_byte_identical_across_hash_seeds(self, append_file, args):
        import os
        import subprocess
        import sys

        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            result = subprocess.run(
                [sys.executable, "-m", "repro"]
                + [a.format(path=append_file) for a in args],
                capture_output=True,
                env=env,
                cwd=os.getcwd(),
            )
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

"""Tests for :mod:`repro.check` — the diagnostic framework, the nml lint
pass, the optimization auditor (including the fault-injected unsound-DCONS
catch), the machine-code verifier, pass containment, and the ``repro
check`` / ``repro batch --check`` CLI surface with its exit-code taxonomy.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import CHECK_PASSES, REGISTRY, check_program
from repro.check.audit import audit_program
from repro.check.diagnostics import (
    CheckReport,
    CheckSeverity,
    Diagnostic,
    Rule,
    RuleRegistry,
)
from repro.check.lint import lint_program
from repro.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main
from repro.lang.ast import App, Prim, uncurry_app, walk
from repro.lang.errors import NO_SPAN
from repro.lang.parser import parse_program
from repro.lang.prelude import paper_partition_sort, prelude_source
from repro.machine.compiler import compile_program
from repro.machine.instructions import (
    Apply,
    Branch,
    EnvRestore,
    LetrecEnter,
    Load,
    PushBool,
    PushInt,
    RegionOpen,
    Store,
)
from repro.machine.verify import verify_code, verify_program_code
from repro.opt.pipeline import (
    paper_ps_double_prime,
    paper_ps_prime,
    paper_rev_prime,
    paper_stack_allocated,
)
from repro.opt.reuse import make_reuse_specialization
from repro.robust.faults import FaultPlan, inject

APPEND = "append x y = if (null x) then y else cons (car x) (append (cdr x) y);\n"


def rule_ids(diagnostics):
    return [d.rule.id for d in diagnostics]


def check_src(source: str, passes=None) -> CheckReport:
    return check_program(parse_program(source), passes=passes)


class TestDiagnosticsFramework:
    def test_registry_rejects_duplicate_ids(self):
        registry = RuleRegistry()
        rule = Rule("X001", "a", CheckSeverity.ERROR, "lint", "s")
        registry.register(rule)
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Rule("X001", "b", CheckSeverity.HINT, "lint", "t"))

    def test_global_registry_covers_every_pass(self):
        passes = {rule.pass_name for rule in REGISTRY.all()}
        assert passes == {"check", "lint", "audit", "machine"}
        table = REGISTRY.table()
        for rule in REGISTRY.all():
            assert rule.id in table

    def test_severity_ordering(self):
        assert CheckSeverity.HINT.rank < CheckSeverity.WARNING.rank
        assert CheckSeverity.WARNING.rank < CheckSeverity.ERROR.rank

    def test_diagnostic_format_and_json(self):
        rule = REGISTRY.get("AUD003")
        program = parse_program("id x = x;")
        span = program.bindings[0].expr.span
        diagnostic = Diagnostic(rule, "boom", span=span, context="id")
        text = diagnostic.format()
        assert "AUD003" in text and "error" in text and "[id]" in text
        doc = diagnostic.to_json()
        assert doc["rule"] == "AUD003"
        assert doc["pass"] == "audit"
        assert doc["span"]["line"] == span.line

    def test_report_ok_counts_and_ordering(self):
        report = CheckReport(path="p.nml")
        report.add(Diagnostic(REGISTRY.get("AUD008"), "hint"))
        assert report.ok and report.counts() == {"error": 0, "warning": 0, "hint": 1}
        report.add(Diagnostic(REGISTRY.get("AUD003"), "error"))
        assert not report.ok
        assert rule_ids(report.sorted_diagnostics()) == ["AUD003", "AUD008"]
        assert "p.nml: 1 error(s), 0 warning(s), 1 hint(s)" in report.render()

    def test_crashed_pass_makes_report_not_ok(self):
        report = CheckReport()
        report.pass_errors["audit"] = "KeyError: 'y'"
        assert not report.ok


class TestLint:
    def test_clean_program(self):
        report = check_src(APPEND + "append [1] [2]", passes=["lint"])
        assert report.diagnostics == []

    def test_shadowed_parameter(self):
        found = lint_program(parse_program("f x = (lambda x. x) 1;\nf 2"))
        assert rule_ids(found) == ["LNT001"]
        assert found[0].span != NO_SPAN

    def test_shadowed_inner_binding(self):
        source = "f x = letrec f = lambda y. y in f x;\nf 1"
        assert "LNT001" in rule_ids(lint_program(parse_program(source)))

    def test_unused_inner_binding(self):
        source = "g x = letrec dead = cons 1 nil in x;\ng 5"
        found = lint_program(parse_program(source))
        assert rule_ids(found) == ["LNT002"]
        assert "dead" in found[0].message

    def test_top_level_bindings_exempt_from_unused(self):
        source = APPEND + "42"
        assert lint_program(parse_program(source)) == []

    def test_unreachable_branch(self):
        found = lint_program(parse_program("f x = if true then x else x + 1;\nf 1"))
        assert rule_ids(found) == ["LNT003"]
        assert "else branch" in found[0].message

    def test_non_productive_recursion(self):
        found = lint_program(parse_program("loop x = loop x;\nloop 1"))
        assert rule_ids(found) == ["LNT004"]

    def test_base_case_is_productive(self):
        source = "down x = if x == 0 then 0 else down (x - 1);\ndown 3"
        assert lint_program(parse_program(source)) == []

    def test_primitive_over_application(self):
        found = lint_program(parse_program("f x = (car x) 1 2;\nf [1]"))
        assert "LNT005" in rule_ids(found)


class TestAudit:
    def test_paper_artifacts_audit_clean(self):
        # The auditor certifies every transformed paper program: zero
        # error-severity findings across PS', PS'', REV', stack-allocated PS.
        for label, program in [
            ("PS'", paper_ps_prime().program),
            ("PS''", paper_ps_double_prime().program),
            ("REV'", paper_rev_prime().program),
            ("PS+stack", paper_stack_allocated().program),
        ]:
            found = audit_program(program)
            errors = [d for d in found if d.severity is CheckSeverity.ERROR]
            assert errors == [], f"{label}: {[d.format() for d in errors]}"

    def test_untransformed_program_yields_hints(self):
        found = audit_program(paper_partition_sort())
        assert all(d.severity is not CheckSeverity.ERROR for d in found)
        assert "AUD008" in rule_ids(found)  # append's licensed reuse, unused

    def test_donor_not_a_variable(self):
        found = audit_program(
            parse_program("f x = dcons (cons 1 nil) 2 x;\nf [1]")
        )
        assert "AUD001" in rule_ids(found)

    def test_donor_not_a_parameter(self):
        found = audit_program(
            parse_program("f x = letrec y = cons 1 nil in dcons y 2 x;\nf [1]")
        )
        assert rule_ids(found) == ["AUD002"]

    def test_donor_used_after_reuse(self):
        source = APPEND + "f x = append (dcons x 1 nil) x;\nf [1, 2]"
        ids = rule_ids(audit_program(parse_program(source)))
        assert "AUD004" in ids

    def test_double_reuse_on_one_path(self):
        source = APPEND + "f x = append (dcons x 1 nil) (dcons x 2 nil);\nf [1, 2]"
        ids = rule_ids(audit_program(parse_program(source)))
        assert "AUD005" in ids

    def test_sound_handwritten_dcons(self):
        # The append-reuse shape, handwritten: donor's spine never escapes
        # (on the erased program), donor dead after the site.
        source = (
            "app2 x y = if (null x) then y"
            " else dcons x (car x) (app2 (cdr x) y);\napp2 [1, 2] [3]"
        )
        found = audit_program(parse_program(source))
        assert all(d.severity is not CheckSeverity.ERROR for d in found)

    def test_injected_unsound_reuse_is_caught_statically(self):
        # The tentpole demonstration: an injected compiler bug skips the
        # escape gate and recycles append's SECOND parameter — whose spine
        # escapes into the result.  The auditor, re-deriving facts on the
        # dcons-erased program, reports it as an error at the original
        # cons site's span, without ever running the program.
        program = paper_partition_sort()
        with inject(FaultPlan(unsound_reuse_at=1)) as injector:
            bad = make_reuse_specialization(
                program, "append", 2, new_name="append_bad"
            ).program
        assert injector.fired == ["unsound_reuse@1"]

        dcons_sites = [
            node
            for node in walk(bad.binding("append_bad").expr)
            if isinstance(node, App)
            and isinstance(uncurry_app(node)[0], Prim)
            and uncurry_app(node)[0].name == "dcons"
            and len(uncurry_app(node)[1]) == 3  # the saturated site only
        ]
        assert len(dcons_sites) == 1

        found = audit_program(bad)
        errors = [d for d in found if d.severity is CheckSeverity.ERROR]
        assert rule_ids(errors) == ["AUD003"]
        assert errors[0].context == "append_bad"
        assert errors[0].span == dcons_sites[0].span
        assert errors[0].span != NO_SPAN

    def test_sharing_obligation_warning(self):
        # PS'' carries the one statically-undischargeable obligation: the
        # argument fed to ps_reuse's donor comes from car (split ...).
        found = audit_program(paper_ps_double_prime().program)
        warnings = [d for d in found if d.severity is CheckSeverity.WARNING]
        assert warnings and all(d.rule.id == "AUD006" for d in warnings)
        assert all("ps_reuse" in d.message for d in warnings)


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: examples/*.nml plus every 10th generated corpus program
ORACLE_FILES = sorted(EXAMPLES.glob("*.nml")) + sorted(
    (EXAMPLES / "generated").glob("gen-*.nml")
)[::10]


def _findings(report: CheckReport) -> list[tuple]:
    return [(d.rule.id, d.span, d.context, d.message) for d in report.diagnostics]


class TestSharedSessionOracle:
    """The auditor's verdicts do not depend on sharing the planner's
    session: it re-derives its facts on the dcons-erased program either
    way, and a shared cache answers only identically keyed questions."""

    @pytest.mark.parametrize(
        "path", ORACLE_FILES, ids=lambda p: p.relative_to(EXAMPLES).as_posix()
    )
    def test_shared_and_fresh_audits_agree(self, path):
        from repro.escape.analyzer import EscapeAnalysis
        from repro.opt.driver import apply_plan, plan_optimizations

        program = parse_program(path.read_text())
        session = EscapeAnalysis(program).session
        plan = plan_optimizations(program, session=session)
        optimized = apply_plan(plan, session=session).program
        fresh = check_program(optimized)
        shared = check_program(optimized, session=session)
        assert _findings(shared) == _findings(fresh)
        assert shared.pass_errors == fresh.pass_errors

    def test_shared_session_still_catches_injected_unsound_reuse(self):
        # The same injected compiler bug as the fresh-path test above, but
        # the rewrite and the audit ask through a session that already
        # holds every sound fact about the original program.
        from repro.escape.analyzer import EscapeAnalysis
        from repro.query import AnalysisSession

        program = paper_partition_sort()
        session = AnalysisSession(program)
        EscapeAnalysis(program, session=session).global_all("append")
        with inject(FaultPlan(unsound_reuse_at=1)) as injector:
            bad = make_reuse_specialization(
                program,
                "append",
                2,
                new_name="append_bad",
                analysis=EscapeAnalysis(program, session=session),
            ).program
        assert injector.fired == ["unsound_reuse@1"]
        [site] = [
            node
            for node in walk(bad.binding("append_bad").expr)
            if isinstance(node, App)
            and isinstance(uncurry_app(node)[0], Prim)
            and uncurry_app(node)[0].name == "dcons"
            and len(uncurry_app(node)[1]) == 3
        ]

        for found in (
            audit_program(bad, session=session),
            check_program(bad, session=session).diagnostics,
        ):
            errors = [d for d in found if d.severity is CheckSeverity.ERROR]
            assert rule_ids(errors) == ["AUD003"]
            assert errors[0].context == "append_bad"
            assert errors[0].span == site.span != NO_SPAN


class TestMachineVerifier:
    def test_compiled_paper_programs_verify_clean(self):
        for program in [
            paper_partition_sort(),
            paper_ps_double_prime().program,
            paper_stack_allocated().program,
        ]:
            assert verify_program_code(compile_program(program)) == []

    def test_stack_underflow(self):
        found = verify_code((Apply(),))
        ids = rule_ids(found)
        assert "MCH001" in ids
        assert any("code[0]" in d.context for d in found)

    def test_block_effect(self):
        found = verify_code((PushInt(1), PushInt(2)))
        assert rule_ids(found) == ["MCH002"]

    def test_dead_slot_read(self):
        code = (
            LetrecEnter(("x",)),
            PushInt(1),
            Store("x"),
            EnvRestore(),
            Load("x"),
        )
        found = verify_code(code)
        assert "MCH003" in rule_ids(found)
        assert any("code[4]" in d.context for d in found)

    def test_env_underflow(self):
        found = verify_code((PushInt(1), EnvRestore()))
        assert "MCH004" in rule_ids(found)

    def test_store_outside_frame(self):
        found = verify_code((PushInt(1), Store("x"), PushInt(2)))
        assert "MCH005" in rule_ids(found)

    def test_malformed_code(self):
        found = verify_code((PushInt(1), "not an instruction"))
        assert "MCH006" in rule_ids(found)

    def test_region_imbalance(self):
        found = verify_code((RegionOpen("stack"), PushInt(1)))
        assert "MCH007" in rule_ids(found)

    def test_branch_arms_verified_independently(self):
        code = (PushBool(True), Branch((PushInt(1),), (Apply(),)))
        found = verify_code(code)
        assert any("else" in d.context for d in found)


class TestCheckProgram:
    def test_runs_all_passes_by_default(self):
        report = check_program(paper_partition_sort(), path="ps.nml")
        assert set(report.pass_timings) == set(CHECK_PASSES)
        assert report.path == "ps.nml"
        assert report.ok

    def test_pass_subset(self):
        report = check_program(paper_partition_sort(), passes=["lint"])
        assert set(report.pass_timings) == {"lint"}

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown check pass"):
            check_program(paper_partition_sort(), passes=["spellcheck"])

    def test_crashing_pass_is_contained(self, monkeypatch):
        def explode(program):
            raise RuntimeError("boom")

        monkeypatch.setitem(CHECK_PASSES, "audit", explode)
        report = check_program(paper_partition_sort())
        assert report.pass_errors == {"audit": "RuntimeError: boom"}
        assert not report.ok
        assert "CHK001" in rule_ids(report.diagnostics)
        # The other passes still ran and timed.
        assert set(report.pass_timings) == set(CHECK_PASSES)

    def test_findings_emit_obs_events(self):
        from repro.obs import RingBufferSink, Tracer, activate

        sink = RingBufferSink(capacity=None)
        with activate(Tracer([sink])):
            check_program(paper_partition_sort(), passes=["audit"])
        fired = [e for e in sink.events if e["type"] == "check_rule_fired"]
        assert fired  # at least the AUD008/AUD009 hints
        assert all(e["pass"] == "audit" for e in fired)
        spans = [
            e
            for e in sink.events
            if e["type"] == "span_end" and e.get("name") == "check:audit"
        ]
        assert spans  # the per-pass span timing


class TestCheckCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.nml"
        path.write_text(prelude_source(["append"], "append [1] [2]"))
        assert main(["check", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_error_findings_exit_four(self, capsys):
        source = "f x = dcons (cons 1 nil) 2 x; f [1]"
        assert main(["check", "-e", source]) == EXIT_FINDINGS
        assert "AUD001" in capsys.readouterr().out

    def test_parse_failure_exits_one(self, capsys):
        assert main(["check", "-e", "f x = ((("]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/nonexistent/x.nml"]) == EXIT_ERROR

    def test_rules_table(self, capsys):
        assert main(["check", "--rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule_id in ["AUD003", "LNT001", "MCH001", "CHK001"]:
            assert rule_id in out

    def test_json_document(self, capsys):
        source = "f x = dcons (cons 1 nil) 2 x; f [1]"
        assert main(["check", "-e", source, "--json"]) == EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["totals"]["error"] >= 1
        [entry] = doc["files"]
        assert entry["ok"] is False
        matching = [d for d in entry["diagnostics"] if d["rule"] == "AUD001"]
        assert matching and matching[0]["span"]["line"] == 1
        assert set(entry["pass_timings"]) == {"lint", "audit", "machine"}

    def test_pass_filter(self, capsys):
        source = "f x = dcons (cons 1 nil) 2 x; f [1]"
        assert main(["check", "-e", source, "--pass", "lint", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["files"][0]["pass_timings"]) == {"lint"}

    def test_exit_taxonomy_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for marker in ["0 ", "1 ", "3 ", "4 "]:
            assert marker in out
        assert "exit codes" in out.lower()


class TestBatchCheck:
    def test_batch_check_folds_counts(self, tmp_path, capsys):
        good = tmp_path / "good.nml"
        good.write_text(prelude_source(["append"], "append [1] [2]"))
        bad = tmp_path / "bad.nml"
        bad.write_text("f x = dcons (cons 1 nil) 2 x;\nf [1]")
        code = main(
            ["batch", str(tmp_path), "--check", "--no-store", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_FINDINGS
        by_name = {entry["path"].rsplit("/", 1)[-1]: entry for entry in doc["files"]}
        assert by_name["bad.nml"]["check"]["error"] >= 1
        assert by_name["good.nml"]["check"]["error"] == 0
        assert doc["totals"]["check_error"] >= 1

    def test_batch_without_check_has_no_counts(self, tmp_path, capsys):
        good = tmp_path / "good.nml"
        good.write_text(prelude_source(["append"], "append [1] [2]"))
        assert main(["batch", str(tmp_path), "--no-store", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "check" not in doc["files"][0]

    def test_batch_clean_check_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.nml"
        good.write_text(prelude_source(["append"], "append [1] [2]"))
        assert (
            main(["batch", str(tmp_path), "--check", "--no-store"]) == EXIT_OK
        )
        assert "check 0 error(s)" in capsys.readouterr().out

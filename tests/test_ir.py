"""The flat IR and the worklist engine: lowering shape (one instruction
per AST node, explicit def–use edges, spans preserved), dependency sets,
pretty listings, the store digest, the alias partition, and the worklist
evaluator's incremental execution and parity with the paper's Kleene
iteration (the reference, formerly the ``legacy`` engine)."""

import pytest

from repro.escape.abstract import AbstractEvaluator, fingerprint, kleene_solve
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.domain import BOTTOM, EscapeValue
from repro.escape.global_test import run_global_test
from repro.escape.lattice import BeChain, Escapement
from repro.escape.worklist import AliasPartition, WorklistEvaluator
from repro.ir import OPS, lower_expr, lower_program, pretty_block, pretty_blocks
from repro.lang.ast import Lambda, Letrec
from repro.lang.errors import AnalysisError
from repro.lang.parser import parse_expr, parse_program
from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.obs import RingBufferSink, Tracer, activate
from repro.query import DIGEST_VERSION, scc_digest
from repro.types.infer import infer_expr
from repro.types.types import BOOL, INT, TList, TypeScheme, arity


def typed(source: str, **env_types):
    expr = parse_expr(source)
    env = {name: TypeScheme.mono(ty) for name, ty in env_types.items()}
    infer_expr(expr, env)
    return expr


E11 = EscapeValue(Escapement(1, 1))


class TestLowering:
    def test_one_instruction_per_node(self):
        block = lower_expr(parse_expr("car x"))
        assert [ins.op for ins in block.instrs] == ["prim", "load", "apply"]
        assert block.result == 2
        assert all(ins.op in OPS for ins in block.instrs)

    def test_def_use_edges(self):
        block = lower_expr(parse_expr("car x"))
        apply = block.instrs[2]
        assert apply.operands == (0, 1)
        # forward edges derived by finish()
        assert block.users[0] == (2,)
        assert block.users[1] == (2,)
        assert block.users[2] == ()

    def test_spans_preserved(self):
        block = lower_expr(parse_expr("car x"))
        for ins in block.instrs:
            assert ins.span is ins.node.span

    def test_branch_arms_are_flat(self):
        block = lower_expr(parse_expr("if b then x else y"))
        assert [ins.op for ins in block.instrs] == ["load", "load", "load", "branch"]
        branch = block.instrs[3]
        assert branch.operands == (0, 1, 2)
        assert branch.blocks == ()  # no nesting: both arms inline

    def test_branch_deps_union_all_three(self):
        block = lower_expr(parse_expr("if b then x else y"))
        assert block.free_names == frozenset({"b", "x", "y"})

    def test_lambda_nests_body_and_subtracts_param(self):
        block = lower_expr(parse_expr("lambda y. cons x y"), label="f")
        (close,) = block.instrs
        assert close.op == "close"
        assert close.param == "y"
        assert close.names == ("x",)  # y bound by the lambda
        assert block.free_names == frozenset({"x"})
        body = close.blocks[0]
        assert body.label == "f.λy"
        assert body.free_names == frozenset({"x", "y"})

    def test_letrec_enters_nested_blocks(self):
        expr = parse_expr("letrec f = lambda l. f l in f x")
        block = lower_expr(expr, label="top")
        (enter,) = block.instrs
        assert enter.op == "enter"
        assert enter.names == ("f",)
        assert len(enter.blocks) == 2  # one per binding, then the body
        assert enter.blocks[0].label == "top.f"
        assert enter.blocks[1].label == "top.in"
        # f is bound by the letrec; only x leaks out
        assert block.free_names == frozenset({"x"})

    def test_size_counts_nested_blocks(self):
        block = lower_expr(parse_expr("lambda y. cons x y"))
        assert len(block) == 1
        assert block.size() == 1 + block.instrs[0].blocks[0].size()

    def test_lower_program_one_block_per_binding(self):
        blocks = lower_program(paper_partition_sort())
        assert set(blocks) == {"append", "split", "ps"}
        assert all(b.label == name for name, b in blocks.items())

    def test_lowering_emits_ir_lower_events(self):
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            blocks = lower_program(prelude_program(["append"]))
        events = [e for e in ring.events if e["type"] == "ir_lower"]
        assert [e["name"] for e in events] == ["append"]
        assert events[0]["instructions"] == blocks["append"].size()

    def test_blocks_compare_by_identity(self):
        a = lower_expr(parse_expr("car x"))
        b = lower_expr(parse_expr("car x"))
        assert a != b  # cache-key semantics
        assert len({id(a), id(b)}) == 2


class TestPretty:
    def test_listing_shape(self):
        text = pretty_block(lower_expr(parse_expr("car x"), label="probe"))
        assert "block probe:" in text
        assert "%0 = prim car" in text
        assert "%1 = load x" in text
        assert "%2 = apply %0, %1 ; result" in text

    def test_nested_blocks_are_indented(self):
        text = pretty_block(lower_expr(parse_expr("lambda y. x"), label="f"))
        assert "close λy [x] -> f.λy" in text
        assert "  block f.λy:" in text

    def test_pretty_blocks_joins_program(self):
        text = pretty_blocks(lower_program(paper_partition_sort()))
        for name in ("append", "split", "ps"):
            assert f"block {name}:" in text


class TestAliasPartition:
    def test_singletons_by_default(self):
        p = AliasPartition()
        assert not p.may_share("a", "b")
        assert p.class_of("a") == frozenset({"a"})

    def test_union_is_transitive(self):
        p = AliasPartition()
        p.union("a", "b")
        p.union("b", "c")
        assert p.may_share("a", "c")
        assert p.class_of("a") == frozenset({"a", "b", "c"})

    def test_empty_union_is_noop(self):
        p = AliasPartition()
        p.union()
        assert p.class_of("a") == frozenset({"a"})

    def test_name_classes_filters_name_tokens(self):
        p = AliasPartition()
        p.union(("name", "x"), ("v", "blk", 0), ("name", "y"))
        p.union(("name", "z"), ("v", "blk", 1))
        classes = p.name_classes()
        assert classes["x"] == frozenset({"x", "y"})
        assert classes["y"] == frozenset({"x", "y"})
        assert classes["z"] == frozenset({"z"})


class TestStoreDigest:
    """Stored SCC fixpoints are keyed by :func:`scc_digest`; a change to its
    key material silently cold-starts every existing store."""

    def test_digest_version_is_pinned(self):
        assert DIGEST_VERSION == 2

    def test_scc_digest_is_pinned(self):
        assert scc_digest("fp", 2, None, {}) == (
            "eb46470cb8d8f410dcb7ad6f4a3483ad944f6d44403f0445207815717044c89a"
        )


class TestWorklistEvaluator:
    def ev(self, d=2, **kwargs):
        return WorklistEvaluator(BeChain(d), **kwargs)

    def test_expression_cases_match_legacy(self):
        cases = [
            (typed("1"), {}),
            (typed("nil"), {}),
            (typed("car x", x=TList(INT)), {"x": E11}),
            (typed("if b then x else nil", b=BOOL, x=TList(INT)), {"b": BOTTOM, "x": E11}),
            (typed("lambda y. x", x=TList(INT)), {"x": E11}),
        ]
        for expr, env in cases:
            reference = AbstractEvaluator(BeChain(2)).eval(expr, dict(env))
            worklist = self.ev().eval(expr, dict(env))
            assert worklist.be == reference.be

    def test_unbound_variable_error_matches_legacy(self):
        expr = parse_expr("x")
        with pytest.raises(AnalysisError) as reference_err:
            AbstractEvaluator(BeChain(2)).eval(expr, {})
        with pytest.raises(AnalysisError) as worklist_err:
            self.ev().eval(expr, {})
        assert str(worklist_err.value) == str(reference_err.value)

    def test_incremental_reexecution_skips_unchanged(self):
        e = self.ev()
        expr = typed("car x", x=TList(INT))
        e.eval(expr, {"x": E11})
        steps = e.steps
        # same value objects: nothing changed, nothing re-executes
        e.eval(expr, {"x": E11})
        assert e.steps == steps

    def test_changed_input_reexecutes_dependents_only(self):
        e = self.ev()
        expr = typed("if b then x else y", b=BOOL, x=TList(INT), y=TList(INT))
        env = {"b": BOTTOM, "x": E11, "y": BOTTOM}
        e.eval(expr, env)
        steps = e.steps
        # a new object for y: its load and the branch re-run, b and x do not
        result = e.eval(expr, {**env, "y": EscapeValue(Escapement(1, 0))})
        assert e.steps == steps + 2
        assert result.be == Escapement(1, 1)

    def test_state_invalidated_after_error(self):
        e = self.ev()
        expr = typed("car x", x=TList(INT))
        with pytest.raises(AnalysisError):
            e.eval(expr, {})  # x missing: partial execution
        assert e.eval(expr, {"x": E11}).be == Escapement(1, 0)

    def test_fixpoint_fingerprints_match_legacy(self):
        program = paper_partition_sort()
        evaluator, env = kleene_solve(program)
        worklist = EscapeAnalysis(paper_partition_sort())
        solved = worklist.solve(None)
        for name in ("append", "split", "ps"):
            ty = program.binding(name).expr.ty
            fp_reference = fingerprint(env[name], ty, evaluator.chain)
            fp_w = fingerprint(solved.env[name], ty, solved.evaluator.chain)
            assert str(fp_w) == str(fp_reference)

    def test_global_results_match_legacy(self):
        program = paper_partition_sort()
        evaluator, env = kleene_solve(program)
        worklist = EscapeAnalysis(paper_partition_sort())
        for name in ("append", "split", "ps"):
            ty = program.binding(name).expr.ty
            assert [str(r.result) for r in worklist.global_all(name)] == [
                str(run_global_test(evaluator, env, name, ty, i).result)
                for i in range(1, arity(ty) + 1)
            ]

    def test_worklist_does_far_less_work(self):
        program = paper_partition_sort()
        evaluator, env = kleene_solve(program)
        worklist = EscapeAnalysis(paper_partition_sort())
        for name in ("append", "split", "ps"):
            worklist.global_all(name)
            ty = program.binding(name).expr.ty
            for i in range(1, arity(ty) + 1):
                run_global_test(evaluator, env, name, ty, i)
        assert worklist.stats.eval_steps * 10 <= evaluator.steps
        assert worklist.stats.worklist_evals == worklist.stats.eval_steps

    def test_iteration_cap_widens(self):
        analysis = EscapeAnalysis(paper_partition_sort(), max_iterations=1)
        analysis.solve(None)
        assert analysis.last_solved is not None
        assert all(t.widened for t in analysis.last_solved.traces)
        assert str(analysis.global_test("ps", 1).result) == "<1,1>"

    def test_untyped_binding_is_rejected(self):
        e = self.ev()
        expr = parse_expr("letrec f = lambda l. f l in f")
        assert isinstance(expr, Letrec)
        with pytest.raises(AnalysisError, match="not type-annotated"):
            e.solve_bindings(expr, {})

    def test_sharing_classes_reflexive_and_symmetric(self):
        analysis = EscapeAnalysis(paper_partition_sort())
        analysis.solve(None)
        classes = analysis.sharing_classes()
        assert classes, "solve should populate the alias partition"
        for name, cls in classes.items():
            assert name in cls
            for other in cls:
                if other in classes:
                    assert classes[other] == cls

    def test_sharing_classes_connect_the_callgraph(self):
        analysis = EscapeAnalysis(paper_partition_sort())
        analysis.solve(None)
        classes = analysis.sharing_classes()
        # ps builds its result out of append/split applications
        assert "append" in classes["ps"] or "split" in classes["ps"]

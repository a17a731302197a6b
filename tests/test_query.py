"""The query engine (:mod:`repro.query`): solve/SCC caching, per-query
stats, AST isolation (the local-test sharing hazard), and session reuse
across facades and budgeted queries."""

import pytest

from repro.escape.analyzer import EscapeAnalysis
from repro.lang.errors import AnalysisError
from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.obs import RingBufferSink, Tracer, activate
from repro.query import AnalysisSession
from repro.robust.budget import AnalysisBudget
from repro.types.types import INT, TFun, TList

DEEP_APPEND = TFun(TList(TList(INT)), TFun(TList(TList(INT)), TList(TList(INT))))


class TestSolveCache:
    def test_identical_solves_share_the_solved_program(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort)
        first = analysis.solve(None)
        second = analysis.solve(None)
        assert first is second
        assert analysis.stats.solve_misses == 1
        assert analysis.stats.solve_hits == 1

    def test_cache_hit_costs_no_fixpoint_iterations(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort)
        analysis.global_all("append")
        warm = analysis.stats.iterations
        assert warm > 0
        analysis.global_all("split")
        assert analysis.stats.iterations == warm
        assert analysis.session.stats.last_query.iterations == 0

    def test_pins_key_the_cache(self):
        program = prelude_program(["append"])
        analysis = EscapeAnalysis(program)
        default = analysis.solve(None)
        pinned = analysis.solve({"append": DEEP_APPEND})
        assert pinned is not default
        assert pinned.d == 2 and default.d == 1
        assert analysis.solve({"append": DEEP_APPEND}) is pinned

    def test_pinned_scc_reuse(self):
        # Pinning `copy` deeper leaves append's and heads' typed
        # fingerprints untouched: their cached fixpoints are reused.
        program = prelude_program(["append", "heads", "copy"])
        analysis = EscapeAnalysis(program)
        analysis.solve(None)
        deep_copy = TFun(TList(TList(INT)), TList(TList(INT)))
        analysis.solve({"copy": deep_copy})
        query = analysis.session.stats.last_query
        assert query.scc_hits == 2
        assert query.scc_misses == 1


class TestAstIsolation:
    """The satellite regression: solves run on private clones, so queries
    never clobber ``.ty`` annotations on the caller's (shared) AST."""

    def test_interleaved_local_and_global_tests_leave_the_ast_alone(self):
        program = prelude_program(["append"])
        analysis = EscapeAnalysis(program)
        ty_before = program.binding("append").expr.ty
        assert ty_before is not None

        shallow_before = analysis.global_test("append", 1)
        # A local test at a *deeper* instance: pre-refactor, the variant
        # program shared these binding nodes and the pinned re-inference
        # re-typed them in place.
        deep_local = analysis.local_test("append [[1], [2]] [[3]]")
        assert program.binding("append").expr.ty == ty_before
        shallow_after = analysis.global_test("append", 1)
        another_local = analysis.local_test("append [1, 2] [3]")

        assert shallow_before.result == shallow_after.result
        assert str(shallow_after.result) == "<1,0>"
        assert str(deep_local[0].result) == "<1,1>"
        assert str(another_local[0].result) == "<1,0>"
        assert program.binding("append").expr.ty == ty_before

    def test_local_test_does_not_mutate_the_call_expression(self, partition_sort):
        from repro.lang.parser import parse_expr

        expr = parse_expr("append (ps [2, 1]) [3]")
        snapshot = {node.uid: node.ty for node in _walk(expr)}
        EscapeAnalysis(partition_sort).local_test(expr)
        assert {node.uid: node.ty for node in _walk(expr)} == snapshot

    def test_global_solves_do_not_retouch_the_program_ast(self):
        program = prelude_program(["append"])
        analysis = EscapeAnalysis(program)
        snapshot = {node.uid: node.ty for node in _walk(program.letrec)}
        analysis.global_test("append", 1, instance=DEEP_APPEND)
        assert {node.uid: node.ty for node in _walk(program.letrec)} == snapshot


def _walk(expr):
    from repro.lang.ast import walk

    return walk(expr)


class TestSessionSharing:
    def test_two_facades_share_one_session(self, partition_sort):
        session = AnalysisSession(partition_sort)
        first = EscapeAnalysis(partition_sort, session=session)
        second = EscapeAnalysis(partition_sort, session=session)
        first.global_all("append")
        second.global_all("ps")
        assert session.stats.solve_misses == 1
        assert session.stats.solve_hits == 1

    def test_session_for_another_program_is_rejected(self, partition_sort):
        other = prelude_program(["append"])
        session = AnalysisSession(other)
        with pytest.raises(AnalysisError):
            EscapeAnalysis(partition_sort, session=session)

    def test_conflicting_configuration_is_rejected(self, partition_sort):
        session = AnalysisSession(partition_sort, d=2)
        with pytest.raises(AnalysisError):
            EscapeAnalysis(partition_sort, d=5, session=session)
        with pytest.raises(AnalysisError):
            EscapeAnalysis(partition_sort, max_iterations=1, session=session)

    def test_facade_inherits_session_configuration(self, partition_sort):
        session = AnalysisSession(partition_sort, d=5)
        analysis = EscapeAnalysis(partition_sort, session=session)
        assert analysis.d_override == 5
        assert analysis.solve(None).d == 5


class TestStats:
    def test_stats_account_for_work(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort)
        analysis.global_all("append")
        stats = analysis.stats
        assert stats.queries == 1
        assert stats.iterations > 0
        assert stats.eval_steps > 0
        assert stats.scc_misses == 3  # append, split, ps knots

    def test_summary_mentions_every_counter(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort)
        analysis.global_all("append")
        analysis.global_all("split")
        text = analysis.stats.summary()
        assert "query(ies)" in text
        assert "solve cache" in text and "scc cache" in text
        assert "iteration" in text and "eval step" in text

    def test_iterates_replay_available_per_binding(self, partition_sort):
        solved = EscapeAnalysis(partition_sort).solve(None)
        iterates = solved.iterates_for("ps")
        assert len(iterates) >= 2
        # bottom first, and the dependency values are present throughout
        assert all("append" in env and "split" in env for env in iterates)
        with pytest.raises(AnalysisError):
            solved.iterates_for("ghost")


class TestBudgetsChargeOnlyMisses:
    def test_repeat_query_spends_no_iterations(self):
        analysis = EscapeAnalysis(
            paper_partition_sort(), budget=AnalysisBudget(max_fixpoint_iterations=50)
        )
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            first = analysis.global_test("append", 1)
            second = analysis.global_test("append", 1)
        assert not first.degraded and not second.degraded
        charges = [e for e in ring.events if e["type"] == "budget_charge"]
        assert len(charges) == 2
        assert charges[0]["iterations"] > 0
        assert charges[1]["iterations"] == 0
        assert first.result == second.result

    def test_meter_does_not_leak_into_later_queries(self, partition_sort):
        # A breached (deadline-0) query must not poison the session's
        # cached evaluators for later, unbudgeted queries.
        session = AnalysisSession(partition_sort)
        warm = EscapeAnalysis(partition_sort, session=session)
        warm.global_all("append")

        from repro.robust.budget import BudgetMeter

        meter = AnalysisBudget(deadline_s=0.0).start()
        budgeted = EscapeAnalysis(partition_sort, meter=meter, session=session)
        from repro.robust.errors import DeadlineExceeded

        with pytest.raises(DeadlineExceeded):
            budgeted.global_all("ps")

        relaxed = EscapeAnalysis(partition_sort, session=session)
        results = relaxed.global_all("ps")  # must not raise
        assert str(results[0].result) == "<1,0>"


class TestNestedMeterScopes:
    """The satellite regression: a nested ``query()`` scope that brings its
    own budget meter used to be silently ignored — it now warns."""

    def test_nested_scope_with_its_own_meter_warns(self, partition_sort):
        session = AnalysisSession(partition_sort)
        outer = AnalysisBudget(max_eval_steps=1_000_000).start()
        inner = AnalysisBudget(max_eval_steps=1).start()
        with session.query(outer):
            with pytest.warns(UserWarning, match="nested.*meter.*ignored"):
                with session.query(inner):
                    pass

    def test_nested_scope_without_meter_is_silent(self, partition_sort):
        import warnings as _warnings

        session = AnalysisSession(partition_sort)
        meter = AnalysisBudget(max_eval_steps=1_000_000).start()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            with session.query(meter):
                with session.query():
                    pass
            # re-passing the *same* meter is also fine: same budget scope
            with session.query(meter):
                with session.query(meter):
                    pass

    def test_outer_meter_stays_in_effect_after_warning(self, partition_sort):
        session = AnalysisSession(partition_sort)
        outer = AnalysisBudget(max_eval_steps=10_000_000).start()
        inner = AnalysisBudget(max_eval_steps=1).start()
        analysis = EscapeAnalysis(partition_sort, session=session)
        with session.query(outer):
            with pytest.warns(UserWarning):
                with session.query(inner):
                    # the inner 1-step cap is NOT enforced: the outer
                    # (roomy) meter governs, so the query completes
                    results = analysis.global_all("append")
        assert results and inner.eval_steps == 0
        assert outer.eval_steps > 0


class TestDerivedSessions:
    """``AnalysisSession.derive``: a session for a rewrite of the program
    that owns its program, inference, stats and sharing classes, and shares
    the parent's content-addressed caches and evaluator registry."""

    @pytest.fixture
    def family(self, partition_sort):
        from repro.opt.reuse import make_reuse_specialization

        parent = AnalysisSession(partition_sort)
        parent.solve(None)
        rewritten = make_reuse_specialization(partition_sort, "append", 1).program
        return parent, rewritten

    def test_own_program_schemes_and_stats(self, family):
        parent, rewritten = family
        child = parent.derive(rewritten)
        assert child is not parent and child.program is rewritten
        assert "append_reuse" in child.schemes
        assert "append_reuse" not in parent.schemes
        assert child.stats is not parent.stats and child.stats.queries == 0
        assert child.store is parent.store

    def test_deriving_the_same_program_returns_the_session(self, family):
        parent, _ = family
        assert parent.derive(parent.program) is parent

    def test_unchanged_bindings_hit_the_parent_scc_cache(self, family):
        parent, rewritten = family
        child = EscapeAnalysis(rewritten, session=parent.derive(rewritten))
        child.solve(None)
        # append, split and ps are unchanged; append_reuse is the new SCC.
        assert child.stats.scc_misses == 1
        assert child.stats.scc_hits == 3
        assert parent.stats.scc_misses == 3

    def test_derived_solves_leave_the_parent_sharing_classes_alone(self, family):
        parent, rewritten = family
        before = parent.sharing_classes()
        child = parent.derive(rewritten)
        child.solve(None)
        assert parent.sharing_classes() == before
        assert "append_reuse" in child.sharing_classes()
        assert all("append_reuse" not in names for names in before.values())

    def test_a_query_meter_reaches_the_parent_evaluators(self, family):
        # Cached closures tick the evaluator that created them, so a
        # derived query must meter the parent's evaluators too.
        parent, rewritten = family
        child = parent.derive(rewritten)
        closure = child.solve(None).env["append"].fn
        meter = AnalysisBudget(max_eval_steps=1_000_000).start()
        with child.query(meter):
            assert closure.evaluator.meter is meter
        assert closure.evaluator.meter is None

    def test_session_for_another_program_still_rejected(self, family):
        parent, rewritten = family
        with pytest.raises(AnalysisError):
            EscapeAnalysis(rewritten, session=parent)

    def test_derived_session_takes_the_parent_configuration(self, partition_sort):
        parent = AnalysisSession(partition_sort, d=5, max_iterations=40)
        child = parent.derive(prelude_program(["append"]))
        assert (child.d_override, child.max_iterations) == (5, 40)
        with pytest.raises(AnalysisError, match="configuration"):
            AnalysisSession(prelude_program(["append"]), d=2, parent=parent)

    def test_an_unpinned_solve_reuses_the_base_inference(self, monkeypatch):
        import repro.query as query

        calls = []
        original = query.infer_program
        monkeypatch.setattr(
            query, "infer_program", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        analysis = EscapeAnalysis(prelude_program(["append"]))
        assert len(calls) == 1  # the base inference
        analysis.global_all("append")
        assert len(calls) == 1
        analysis.global_test("append", 1, instance=DEEP_APPEND)
        assert len(calls) == 2  # a pinned solve re-infers its own clone

    def test_repeated_local_tests_hit_the_local_test_cache(self, family):
        from repro.lang.ast import clone_program

        parent, _ = family
        first = EscapeAnalysis(parent.program, session=parent)
        expected = [str(r.result) for r in first.local_test("ps [3, 1, 2]")]
        misses = parent.stats.scc_misses
        # A derived session over a structurally identical program asks the
        # same question: answered from the shared cache, no solve at all.
        twin = clone_program(parent.program)
        again = EscapeAnalysis(twin, session=parent.derive(twin))
        assert [str(r.result) for r in again.local_test("ps [3, 1, 2]")] == expected
        assert again.stats.scc_hits == again.stats.scc_misses == 0
        assert parent.stats.scc_misses == misses

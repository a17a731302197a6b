"""Property tests for the query engine: over *generated* well-typed
programs, answers served by a shared, caching :class:`AnalysisSession` are
bit-identical to a fresh single-use :class:`EscapeAnalysis` per question —
repeated, interleaved, or served under ``--robust`` budgets.  The cache is
an invisible optimization, never an approximation.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.escape.analyzer import EscapeAnalysis
from repro.query import AnalysisSession

from .strategies import analysis_budget, list_function_program


@settings(max_examples=40, deadline=None)
@given(case=list_function_program())
def test_session_answers_match_fresh_analyses(case):
    program, _ = case
    session = AnalysisSession(program)
    cached = EscapeAnalysis(program, session=session)

    # Interleave global and local questions, repeating each: answers must
    # equal a fresh single-use analysis every time, warm or cold.
    for _ in range(2):
        fresh_global = EscapeAnalysis(program).global_all("f")
        session_global = cached.global_all("f")
        assert len(session_global) == len(fresh_global)
        for fresh, warm in zip(fresh_global, session_global):
            assert fresh.result == warm.result
            assert fresh.escaping_spines == warm.escaping_spines
            assert fresh.non_escaping_spines == warm.non_escaping_spines

        fresh_local = EscapeAnalysis(program).local_test(program.body)
        session_local = cached.local_test(program.body)
        assert [r.result for r in session_local] == [r.result for r in fresh_local]

    # Every question after the first solve was served from cache; each
    # global_all/local_test call is one query scope.
    assert session.stats.solve_misses <= 2  # one global, one local variant
    assert session.stats.queries == 4


@settings(max_examples=40, deadline=None)
@given(case=list_function_program(), budget=analysis_budget())
def test_hardened_session_is_exact_or_dominates(case, budget):
    program, _ = case
    exact = EscapeAnalysis(program).global_all("f")
    analysis = EscapeAnalysis(program, budget=budget)

    # Ask twice through the same analysis: its session caches across
    # queries, and budgets charge only the misses — both passes stay sound,
    # and any *exact* answer is bit-identical to the fresh single-use
    # analysis.
    for _ in range(2):
        robust = analysis.global_all("f")
        assert len(robust) == len(exact)
        for e, r in zip(exact, robust):
            if not r.degraded:
                assert e.result == r.result
            else:
                assert e.result.leq(r.result)

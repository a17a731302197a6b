"""Property tests for the hardened engine: over *generated* well-typed
programs and arbitrary budgets, a budget-degraded answer is always ⊒ the
unbudgeted exact answer in ``B_e`` — the engine never under-reports
escapement, no matter where the budget cuts the analysis off.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.escape.analyzer import EscapeAnalysis
from repro.robust.budget import AnalysisBudget

from .strategies import analysis_budget, list_function_program


@settings(max_examples=40, deadline=None)
@given(case=list_function_program(), budget=analysis_budget())
def test_budgeted_answers_dominate_exact(case, budget):
    program, _ = case
    exact = EscapeAnalysis(program).global_all("f")
    robust = EscapeAnalysis(program, budget=budget).global_all("f")
    assert len(robust) == len(exact)
    for e, r in zip(exact, robust):
        assert e.result.leq(r.result), (
            f"degraded answer {r.result} under budget [{budget}] "
            f"dropped below the exact {e.result}"
        )
        if r.degraded:
            assert r.degradation.reason
            assert r.degradation.error is not None


@settings(max_examples=25, deadline=None)
@given(case=list_function_program())
def test_unlimited_budget_is_exact(case):
    program, _ = case
    exact = EscapeAnalysis(program).global_all("f")
    robust = EscapeAnalysis(program, budget=AnalysisBudget()).global_all("f")
    for e, r in zip(exact, robust):
        assert not r.degraded
        assert e.result == r.result

"""Analysis budgets: wall-clock deadlines and work limits.

An :class:`AnalysisBudget` is immutable configuration — how much a query is
*allowed* to spend.  Calling :meth:`AnalysisBudget.start` produces a
:class:`BudgetMeter`, the mutable runtime companion that is threaded through
:class:`~repro.escape.abstract.AbstractEvaluator` and
:class:`~repro.escape.analyzer.EscapeAnalysis`.  The evaluator ticks the
meter on every abstract-evaluation step and every fixpoint iteration; a
breach raises the matching :class:`~repro.robust.errors.BudgetExceeded`
subtype, which a budgeted :class:`~repro.escape.analyzer.EscapeAnalysis`
turns into a sound ``W^τ`` degradation.

The deadline is checked on every fixpoint iteration and every
``DEADLINE_CHECK_STRIDE``-th evaluation step, so the clock is read rarely
enough not to dominate small analyses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.robust.errors import (
    BudgetSpent,
    DeadlineExceeded,
    IterationBudgetExceeded,
    WorkBudgetExceeded,
)

#: Evaluation steps between wall-clock reads.
DEADLINE_CHECK_STRIDE = 64


@dataclass(frozen=True)
class AnalysisBudget:
    """Limits for one analysis query.  ``None`` means unlimited.

    * ``deadline_s`` — wall-clock seconds from :meth:`start`;
    * ``max_fixpoint_iterations`` — total letrec fixpoint iterations
      (summed over every solve the query performs);
    * ``max_eval_steps`` — total abstract-evaluation steps.
    """

    deadline_s: float | None = None
    max_fixpoint_iterations: int | None = None
    max_eval_steps: int | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_s is None
            and self.max_fixpoint_iterations is None
            and self.max_eval_steps is None
        )

    def start(self) -> "BudgetMeter":
        return BudgetMeter(self)

    def __str__(self) -> str:
        parts = []
        if self.deadline_s is not None:
            parts.append(f"deadline {self.deadline_s * 1000:.0f}ms")
        if self.max_fixpoint_iterations is not None:
            parts.append(f"≤{self.max_fixpoint_iterations} iteration(s)")
        if self.max_eval_steps is not None:
            parts.append(f"≤{self.max_eval_steps} eval step(s)")
        return ", ".join(parts) or "unlimited"


class BudgetMeter:
    """The running spend of one query against its budget.

    One meter spans one *query* (which may solve several fixpoints: the
    analyzer re-solves per monotype instance), so budgets bound the total
    work a caller waits on, not one internal phase.
    """

    __slots__ = ("budget", "started_at", "eval_steps", "iterations")

    def __init__(self, budget: AnalysisBudget):
        self.budget = budget
        self.started_at = time.monotonic()
        self.eval_steps = 0
        self.iterations = 0

    # -- spend accounting --------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def spent(self) -> BudgetSpent:
        return BudgetSpent(
            wall_seconds=self.elapsed(),
            eval_steps=self.eval_steps,
            iterations=self.iterations,
        )

    # -- checks ------------------------------------------------------------

    def check_deadline(self) -> None:
        deadline = self.budget.deadline_s
        if deadline is not None and self.elapsed() > deadline:
            raise DeadlineExceeded(
                f"analysis deadline of {deadline * 1000:.0f}ms exceeded "
                f"after {self.eval_steps} eval step(s)"
            )

    def tick_eval(self) -> None:
        """One abstract-evaluation step."""
        self.eval_steps += 1
        limit = self.budget.max_eval_steps
        if limit is not None and self.eval_steps > limit:
            raise WorkBudgetExceeded(
                f"abstract-evaluation budget of {limit} step(s) exhausted"
            )
        if self.eval_steps % DEADLINE_CHECK_STRIDE == 0:
            self.check_deadline()

    def tick_iteration(self) -> None:
        """One letrec fixpoint iteration (all bindings re-evaluated once)."""
        self.check_deadline()
        self.iterations += 1
        limit = self.budget.max_fixpoint_iterations
        if limit is not None and self.iterations > limit:
            raise IterationBudgetExceeded(
                f"fixpoint-iteration budget of {limit} exhausted before convergence"
            )

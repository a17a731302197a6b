"""``repro.robust`` — the hardened analysis engine layer.

* :mod:`repro.robust.errors`  — the retryable/degradable/fatal taxonomy and
  structured :class:`Degradation` records;
* :mod:`repro.robust.budget`  — :class:`AnalysisBudget` (deadline + work
  limits) and its runtime :class:`BudgetMeter`;
* :mod:`repro.robust.faults`  — deterministic fault injection;
* :mod:`repro.robust.resilience` — the daemon's per-target circuit
  breaker;
* :mod:`repro.robust.chaos`   — seeded chaos schedules and the soak
  harness that asserts the always-answer invariant.

Budgeted escape queries that degrade soundly to the ``W^τ`` worst case
are :class:`~repro.escape.analyzer.EscapeAnalysis` given a ``budget``; the
budgeted optimizer, :func:`repro.opt.driver.harden_optimize`, lives with
the one loop that applies optimization plans.

The root exports lazily, like every package root: the low-level modules
are imported *by* the analysis and runtime layers (for budget metering and
fault hooks), while ``chaos`` imports those layers in turn.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.robust.budget": ("AnalysisBudget", "BudgetMeter"),
        "repro.robust.errors": (
            "BudgetExceeded", "BudgetSpent", "DeadlineExceeded", "Degradation",
            "InjectedFault", "IterationBudgetExceeded", "Severity",
            "WorkBudgetExceeded", "classify", "degradation_for", "reason_for",
        ),
        "repro.robust.faults": ("FaultInjector", "FaultPlan", "SlowStage", "StageFault"),
        "repro.robust.resilience": ("CircuitBreaker",),
    },
    modules=("faults",),
)

"""``repro.robust`` — the hardened analysis engine layer.

* :mod:`repro.robust.errors`  — the retryable/degradable/fatal taxonomy and
  structured :class:`Degradation` records;
* :mod:`repro.robust.budget`  — :class:`AnalysisBudget` (deadline + work
  limits) and its runtime :class:`BudgetMeter`;
* :mod:`repro.robust.faults`  — deterministic fault injection;
* :mod:`repro.robust.resilience` — the retry/backoff, circuit-breaker and
  quarantine policy engine shared by the batch supervisor and the daemon;
* :mod:`repro.robust.chaos`   — seeded chaos schedules and the soak
  harness that asserts the always-answer invariant;
* :mod:`repro.robust.engine`  — :class:`HardenedAnalysis`, escape queries
  that degrade soundly to the ``W^τ`` worst case instead of failing;
* :mod:`repro.robust.pipeline` — :func:`harden_optimize`, the optimization
  pipeline that always yields a correct program plus a degradation report.

The root exports lazily, like every package root.  That matters more here
than elsewhere: the low-level modules are imported *by* the analysis and
runtime layers (for budget metering and fault hooks), while ``engine`` and
``pipeline`` import those layers in turn.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.robust.budget": ("AnalysisBudget", "BudgetMeter"),
        "repro.robust.errors": (
            "BudgetExceeded", "BudgetSpent", "DeadlineExceeded", "Degradation",
            "InjectedFault", "IterationBudgetExceeded", "Severity",
            "WorkBudgetExceeded", "classify", "reason_for",
        ),
        "repro.robust.faults": ("FaultInjector", "FaultPlan", "SlowStage", "StageFault"),
        "repro.robust.engine": ("HardenedAnalysis", "RobustResult"),
        "repro.robust.pipeline": ("HardenedPipelineResult", "harden_optimize"),
        "repro.robust.resilience": (
            "CircuitBreaker", "CircuitOpen", "Outcome", "Quarantine",
            "QuarantineEntry", "Resilience", "ResiliencePolicy", "RetryPolicy",
        ),
    },
    modules=("faults",),
)

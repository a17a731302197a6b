"""The structured error taxonomy of the hardened engine.

Every failure the engine can encounter is classified into one of three
severities, which fix the engine's response:

* **RETRYABLE** — transient conditions (an allocation failure, an injected
  transient fault).  The engine retries the operation a bounded number of
  times before falling through to the degradable handling.
* **DEGRADABLE** — the operation cannot complete, but a *sound* answer
  still exists: the worst-case functions ``W^τ`` (Definition 2) are valid
  for every application, so an escape query degrades to the
  ``W^τ``-derived maximal escapement and an optimization step is simply
  skipped.  Budget breaches and analysis/optimization failures land here.
* **FATAL** — no sound degradation exists (the program does not parse or
  type, so ``W^τ`` cannot even be formed) or degradation would mask a real
  defect (:class:`~repro.lang.errors.UseAfterFreeError` is the soundness
  tripwire itself and must never be swallowed).

A degradation is *recorded*, not silent: every degraded answer carries a
:class:`Degradation` with the reason, the stage that failed, the budget
spent, and the original exception.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lang.errors import (
    AnalysisError,
    EvalError,
    HeapAllocationError,
    LexError,
    NmlError,
    OptimizationError,
    ParseError,
    ResolveError,
    StorageSafetyError,
    TypeInferenceError,
    UseAfterFreeError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import BudgetMeter


class Severity(enum.Enum):
    """How the hardened engine responds to a failure."""

    RETRYABLE = "retryable"
    DEGRADABLE = "degradable"
    FATAL = "fatal"


# -- budget breaches ---------------------------------------------------------


class BudgetExceeded(NmlError):
    """Base class of every budget breach.  Always degradable: the query
    falls back to the ``W^τ`` worst case instead of raising to the caller."""


class DeadlineExceeded(BudgetExceeded):
    """The wall-clock deadline of an :class:`~repro.robust.budget.AnalysisBudget`
    passed before the operation finished."""


class IterationBudgetExceeded(BudgetExceeded):
    """The fixpoint-iteration budget was exhausted before convergence."""


class WorkBudgetExceeded(BudgetExceeded):
    """The abstract-evaluation step budget was exhausted."""


# -- injected faults ---------------------------------------------------------


class InjectedFault(NmlError):
    """An exception forced by the fault-injection harness at a chosen
    stage.  Carries its own severity so tests can exercise each path."""

    def __init__(
        self,
        message: str,
        stage: str = "",
        severity: Severity = Severity.DEGRADABLE,
    ):
        super().__init__(message)
        self.stage = stage
        self.severity = severity


# -- classification ----------------------------------------------------------


def classify(error: BaseException) -> Severity:
    """Map an exception to the engine's response.

    The order matters: the soundness tripwires and the front-end errors are
    checked before the broad analysis/optimization buckets.
    """
    if isinstance(error, BudgetExceeded):
        return Severity.DEGRADABLE
    if isinstance(error, InjectedFault):
        return error.severity
    if isinstance(error, HeapAllocationError):
        return Severity.RETRYABLE
    if isinstance(error, (UseAfterFreeError, StorageSafetyError)):
        # Never mask the runtime tripwires: they signal a real soundness bug.
        return Severity.FATAL
    if isinstance(error, (LexError, ParseError, ResolveError, TypeInferenceError)):
        # Without a typed program there is no W^τ to degrade to.
        return Severity.FATAL
    if isinstance(error, (AnalysisError, OptimizationError)):
        return Severity.DEGRADABLE
    if isinstance(error, EvalError):
        return Severity.FATAL
    return Severity.FATAL


# -- degradation records -----------------------------------------------------


@dataclass(frozen=True)
class BudgetSpent:
    """What a query had consumed when it finished (or was cut off)."""

    wall_seconds: float = 0.0
    eval_steps: int = 0
    iterations: int = 0


@dataclass(frozen=True)
class Degradation:
    """One recorded degradation: why, where, and at what cost.

    ``reason`` is a stable machine-readable tag (``"deadline-exceeded"``,
    ``"iteration-budget-exceeded"``, ``"work-budget-exceeded"``,
    ``"analysis-failed"``, ``"optimization-skipped"``, ``"injected-fault"``,
    ``"allocation-failed"``, ``"validation-failed"``); ``stage`` names the
    engine stage that was cut short; ``error`` preserves the original
    exception for post-mortems.  ``str`` leaves ``spent`` out: the text is
    printed with the output it qualifies, which must not vary from run to
    run with the wall clock.
    """

    reason: str
    stage: str
    message: str = ""
    spent: BudgetSpent = field(default_factory=BudgetSpent)
    error: BaseException | None = None

    def __str__(self) -> str:
        text = f"degraded [{self.reason}] at {self.stage}"
        if self.message:
            text += f": {self.message}"
        return text


def degradation_for(
    error: BaseException, stage: str, meter: "BudgetMeter | None" = None
) -> Degradation:
    """The record of ``error`` cutting ``stage`` short, with what ``meter``
    had spent by then.

    The record keeps the exception but not its traceback: the traceback's
    frames hold the caller's list of records, and that reference cycle
    would keep every frame's programs and sessions alive until the cyclic
    collector runs.
    """
    return Degradation(
        reason=reason_for(error),
        stage=stage,
        message=str(error),
        spent=meter.spent() if meter is not None else BudgetSpent(),
        error=error.with_traceback(None),
    )


def reason_for(error: BaseException) -> str:
    """The stable degradation tag for an exception."""
    if isinstance(error, DeadlineExceeded):
        return "deadline-exceeded"
    if isinstance(error, IterationBudgetExceeded):
        return "iteration-budget-exceeded"
    if isinstance(error, WorkBudgetExceeded):
        return "work-budget-exceeded"
    if isinstance(error, InjectedFault):
        return "injected-fault"
    if isinstance(error, HeapAllocationError):
        return "allocation-failed"
    if isinstance(error, OptimizationError):
        return "optimization-skipped"
    return "analysis-failed"

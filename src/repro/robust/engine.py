"""The hardened analysis engine: budgeted queries with sound degradation.

:class:`HardenedAnalysis` wraps :class:`~repro.escape.analyzer.EscapeAnalysis`
so that an escape query *always* returns a sound answer:

* within budget, the exact analysis result;
* on a budget breach (deadline, fixpoint iterations, evaluation steps) or a
  degradable failure, the ``W^τ``-derived worst case ⟨1, sᵢ⟩ for each
  queried parameter — valid for every application by Definition 2 — tagged
  with a structured :class:`~repro.robust.errors.Degradation`;
* retryable faults (allocation failure) are retried a bounded number of
  times first;
* fatal conditions (untypeable program, tripped soundness tripwires)
  propagate: there is nothing sound to degrade to, or degrading would mask
  a real defect.

The soundness invariant — degraded answers are always ⊒ the exact answer in
``B_e`` — is what the fault-injection suite asserts program by program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.escape.analyzer import EscapeAnalysis
from repro.escape.results import EscapeTestResult
from repro.query import AnalysisSession
from repro.escape.worst import worst_test_result
from repro.lang.ast import Program, Var, uncurry_app
from repro.lang.errors import AnalysisError
from repro.lang.parser import parse_expr
from repro.obs import tracer as obs
from repro.robust import faults
from repro.robust.budget import AnalysisBudget, BudgetMeter
from repro.robust.errors import (
    BudgetSpent,
    DeadlineExceeded,
    Degradation,
    IterationBudgetExceeded,
    Severity,
    WorkBudgetExceeded,
    classify,
    reason_for,
)
from repro.types.types import Type, fun_args


@dataclass(frozen=True)
class RobustResult:
    """One escape-test answer from the hardened engine.

    ``exact`` results carry the analysis conclusion unchanged; degraded
    results carry the worst-case escapement and the reason the exact path
    was cut short.  Either way ``result`` is sound (⊒ the true escapement).
    """

    result: EscapeTestResult
    degradation: Degradation | None = None
    spent: BudgetSpent | None = None

    @property
    def exact(self) -> bool:
        return self.degradation is None

    @property
    def degraded(self) -> bool:
        return self.degradation is not None

    def __str__(self) -> str:
        text = str(self.result)
        if self.degradation is not None:
            text += f"  [{self.degradation.reason}]"
        return text


def _stage_of(error: BaseException) -> str:
    stage = getattr(error, "stage", "")
    if stage:
        return stage
    if isinstance(error, IterationBudgetExceeded):
        return "fixpoint"
    if isinstance(error, (WorkBudgetExceeded, DeadlineExceeded)):
        return "abstract-eval"
    return "analysis"


class HardenedAnalysis:
    """Budgeted, fault-tolerant front door to the escape analysis.

    >>> from repro.lang.prelude import paper_partition_sort
    >>> engine = HardenedAnalysis(paper_partition_sort())
    >>> engine.global_test("append", 1).exact
    True

    Construction opens the query session, whose base inference types the
    program once (fatal if the program is untypeable — without types there
    is no ``W^τ``), and records every binding's parameter types from the
    annotations that inference stamped, so degraded answers can be
    produced even when a later, budgeted solve never finishes.
    """

    def __init__(
        self,
        program: Program,
        budget: AnalysisBudget | None = None,
        d: int | None = None,
        max_iterations: int | None = None,
        max_retries: int = 1,
        store=None,
    ):
        self.program = program
        self.budget = budget or AnalysisBudget()
        self.d = d
        self.max_iterations = max_iterations
        self.max_retries = max_retries
        #: One query session shared by every query (and retry attempt) of
        #: this engine: repeated questions hit the solve/SCC caches, so a
        #: per-query budget is charged only for the cache *misses* the
        #: query actually solves (deadlines are still enforced per query).
        #: An attached :class:`repro.store.AnalysisStore` adds an on-disk
        #: tier with the same charging rule — a store hit decodes persisted
        #: values without running the abstract evaluator, so budget meters
        #: see no eval steps and no fixpoint iterations for it (a corrupt
        #: entry degrades to a charged re-solve, never to a wrong answer).
        self.session = AnalysisSession(
            program, d=d, max_iterations=max_iterations, store=store
        )
        self._param_types: dict[str, tuple[Type, ...]] = {}
        for name in program.binding_names():
            ty = program.binding(name).expr.ty
            self._param_types[name] = tuple(fun_args(ty)[0]) if ty is not None else ()

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _charge(meter: BudgetMeter) -> None:
        """Emit what the finished (or cut-off) query actually spent."""
        spent = meter.spent()
        obs.emit(
            "budget_charge",
            wall_s=round(spent.wall_seconds, 9),
            eval_steps=spent.eval_steps,
            iterations=spent.iterations,
        )

    def _arg_types_for(
        self, function: str, instance: Type | None
    ) -> tuple[Type, ...]:
        """Parameter types at the queried instance (the degraded worst case
        must use the *instance* spine counts to stay ⊒ the exact answer)."""
        if instance is not None:
            return tuple(fun_args(instance)[0])
        if function not in self._param_types:
            raise AnalysisError(f"no top-level binding named {function!r}")
        return self._param_types[function]

    def _run(self, meter: BudgetMeter, query):
        """Run ``query`` (a callable taking a fresh EscapeAnalysis) with the
        retry policy; returns its value or raises the terminal exception."""
        attempts = 0
        while True:
            try:
                faults.check_stage("query")
                analysis = EscapeAnalysis(
                    self.program,
                    d=self.d,
                    max_iterations=self.max_iterations,
                    meter=meter,
                    session=self.session,
                )
                return query(analysis)
            except Exception as error:
                if (
                    classify(error) is Severity.RETRYABLE
                    and attempts < self.max_retries
                ):
                    attempts += 1
                    continue
                raise

    def _degrade(
        self,
        error: BaseException,
        meter: BudgetMeter,
        function: str,
        indices: list[int],
        arg_types: tuple[Type, ...],
        kind: str,
    ) -> list[RobustResult]:
        if classify(error) is Severity.FATAL:
            raise error
        degradation = Degradation(
            reason=reason_for(error),
            stage=_stage_of(error),
            message=str(error),
            spent=meter.spent(),
            error=error,
        )
        # Name the degraded query so `repro explain` can tie the fallback
        # to its binding even when the solver never got far enough to
        # emit any solve events of its own.
        obs.emit(
            "degradation",
            reason=degradation.reason,
            stage=degradation.stage,
            function=function,
        )
        self._charge(meter)
        return [
            RobustResult(
                result=worst_test_result(function, i, arg_types[i - 1], kind=kind),
                degradation=degradation,
                spent=meter.spent(),
            )
            for i in indices
        ]

    # -- global test (§4.1), hardened --------------------------------------

    def global_all(
        self,
        function: str,
        instance: Type | None = None,
        n_args: int | None = None,
    ) -> list[RobustResult]:
        """``G(function, i)`` for every parameter — exact or degraded."""
        arg_types = self._arg_types_for(function, instance)
        meter = self.budget.start()
        n = n_args if n_args is not None else len(arg_types)
        n = min(n, len(arg_types))
        if n == 0:
            raise AnalysisError(f"{function} takes no arguments")
        try:
            results = self._run(
                meter,
                lambda a: a.global_all(function, instance=instance, n_args=n_args),
            )
            self._charge(meter)
            return [RobustResult(result=r, spent=meter.spent()) for r in results]
        except Exception as error:
            return self._degrade(
                error, meter, function, list(range(1, n + 1)), arg_types, "global"
            )

    def global_test(
        self,
        function: str,
        i: int,
        instance: Type | None = None,
        n_args: int | None = None,
    ) -> RobustResult:
        """``G(function, i)`` — exact or degraded, never an exception for
        budget breaches or degradable faults."""
        arg_types = self._arg_types_for(function, instance)
        if not 1 <= i <= len(arg_types):
            raise AnalysisError(f"parameter index {i} out of range 1..{len(arg_types)}")
        meter = self.budget.start()
        try:
            result = self._run(
                meter,
                lambda a: a.global_test(function, i, instance=instance, n_args=n_args),
            )
            self._charge(meter)
            return RobustResult(result=result, spent=meter.spent())
        except Exception as error:
            return self._degrade(error, meter, function, [i], arg_types, "global")[0]

    # -- local test (§4.2), hardened ----------------------------------------

    def local_test(self, call, i: int | None = None):
        """``L(f, i, e₁…eₙ)`` — exact or degraded.

        Degradation needs the head function's parameter types, so calls
        whose head is not a top-level binding propagate their failure.
        """
        expr = parse_expr(call) if isinstance(call, str) else call
        head, args = uncurry_app(expr)
        meter = self.budget.start()
        try:
            results = self._run(meter, lambda a: a.local_test(expr, i))
            self._charge(meter)
            if i is not None:
                return RobustResult(result=results, spent=meter.spent())
            return [RobustResult(result=r, spent=meter.spent()) for r in results]
        except Exception as error:
            if not (isinstance(head, Var) and head.name in self._param_types):
                raise
            arg_types = self._param_types[head.name]
            if len(args) > len(arg_types):
                raise
            indices = [i] if i is not None else list(range(1, len(args) + 1))
            degraded = self._degrade(
                error, meter, head.name, indices, arg_types, "local"
            )
            return degraded[0] if i is not None else degraded

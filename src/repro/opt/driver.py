"""The optimization driver: from analysis facts to an explicit plan, and
the one loop that applies it.

``plan_optimizations`` surveys a whole program and records every storage
decision the escape + sharing facts license, with its justification — the
artifact a compiler would act on (and a user can audit):

* *reuse* — function parameters whose non-escaping top spines have eligible
  DCONS sites (plus the Theorem 2 obligation the caller must discharge);
* *stack* — result-call arguments whose literal spines never escape the
  call (§A.3.1);
* *block* — result-call arguments produced by a top-level function whose
  product's top spine dies with the call (§A.3.3).

``apply_plan`` then performs the plan mechanically, decision by decision
in plan order: reuse specializations are added, body calls are redirected
to them when the actual argument is a literal (fresh, hence unshared), and
the stack/block rewrites are applied.  A step that cannot land is skipped
and recorded; the program is never left partially transformed.
``harden_optimize`` is its budgeted caller: it plans under a budget, calls
``apply_plan`` with the budget's meter, and optionally validates the result
by running it against the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.escape.analyzer import EscapeAnalysis
from repro.lang.ast import (
    App,
    Expr,
    NilLit,
    Prim,
    Program,
    Var,
    uncurry_app,
    uncurry_lambda,
)
from repro.lang.errors import NO_SPAN, AnalysisError, NmlError, SourceSpan
from repro.obs import tracer as obs
from repro.opt.block_alloc import block_allocate_producer
from repro.opt.reuse import make_reuse_specialization, redirect_body_calls, select_reuse_sites
from repro.opt.stack_alloc import stack_allocate_body
from repro.query import AnalysisSession
from repro.robust import faults
from repro.robust.errors import (
    BudgetExceeded,
    Degradation,
    Severity,
    classify,
    degradation_for,
)

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import AnalysisBudget, BudgetMeter


@dataclass(frozen=True)
class Decision:
    """One storage decision with its justification."""

    kind: str  # "reuse" | "stack" | "block"
    function: str  # the function owning the decision ("<body>" for the call)
    param_index: int
    justification: str
    obligation: str = ""  # what a caller must still establish (sharing)
    #: where the decision lands in the source: the first DCONS site for
    #: *reuse*, the argument expression for *stack*/*block* — the same span
    #: the auditor reports against, so a lost decision and the finding that
    #: killed it point at one place
    span: SourceSpan = NO_SPAN

    def __str__(self) -> str:
        text = f"[{self.kind}] {self.function} param {self.param_index}: {self.justification}"
        if self.obligation:
            text += f" (caller must ensure: {self.obligation})"
        return text


@dataclass
class OptimizationPlan:
    program: Program
    decisions: list[Decision] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[Decision]:
        return [d for d in self.decisions if d.kind == kind]

    def summary(self) -> str:
        if not self.decisions:
            return "no storage optimization is licensed by the analysis\n"
        return "\n".join(str(d) for d in self.decisions) + "\n"


#: How :attr:`PipelineResult.log` words a skipped step, by decision kind.
_SKIP_TEXT = {
    "reuse": "skip reuse {}",
    "stack": "skip stack allocation",
    "block": "skip block allocation of {}",
}


class PipelineResult(NamedTuple):
    """A program plus what was done to it.

    ``program`` is always valid: each step lands whole or not at all.
    ``applied`` lists the steps taken, in order; ``degradations`` records
    every step that was skipped — why, where, and the original exception —
    so a skipped optimization is auditable, never silent.  A tuple, so
    ``apply_plan(plan)[0]`` is the program.
    """

    program: Program
    applied: list[str]
    degradations: list[Degradation]

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def log(self) -> list[str]:
        """The applied steps, then one ``skip …`` line per skipped plan step
        (what ``repro diff snapshot`` records as ``optimize_log``)."""
        skipped = []
        for degradation in self.degradations:
            kind, _, function = degradation.stage.partition(":")
            text = _SKIP_TEXT[kind].format(function) if kind in _SKIP_TEXT else f"skip {kind}"
            skipped.append(f"{text}: {degradation.message}")
        return [*self.applied, *skipped]

    def summary(self) -> str:
        lines = [f"applied: {step}" for step in self.applied]
        lines += [str(d) for d in self.degradations]
        if not lines:
            lines = ["no storage optimization is licensed by the analysis"]
        return "\n".join(lines) + "\n"


def _is_literal_chain(expr: Expr) -> bool:
    """Fresh, visible spine construction (list literal / cons chain)."""
    while True:
        if isinstance(expr, NilLit):
            return True
        if not isinstance(expr, App):
            return False
        head, args = uncurry_app(expr)
        if not (isinstance(head, Prim) and head.name == "cons" and len(args) == 2):
            return False
        expr = args[1]


def plan_optimizations(
    program: Program,
    meter: "BudgetMeter | None" = None,
    session: "AnalysisSession | None" = None,
) -> OptimizationPlan:
    """Survey the program and collect every licensed storage decision.

    ``meter`` (from :mod:`repro.robust.budget`) bounds the survey's work:
    budget breaches propagate — they are *not* swallowed like per-function
    analysis failures — so the hardened pipeline can degrade as a whole.

    ``session`` (from :mod:`repro.query`) lets the survey reuse an existing
    query session's solve and SCC caches; by default a fresh session scoped
    to this survey is created, which still lets the per-function global
    tests share one cached fixpoint.
    """
    with obs.span("plan"):
        return _plan_optimizations(program, meter, session)


def _plan_optimizations(
    program: Program,
    meter: "BudgetMeter | None",
    session: "AnalysisSession | None",
) -> OptimizationPlan:
    analysis = EscapeAnalysis(program, meter=meter, session=session)
    plan = OptimizationPlan(program=program)

    # -- reuse candidates per function ----------------------------------
    for name in program.binding_names():
        try:
            results = analysis.global_all(name)
        except BudgetExceeded:
            raise
        except (AnalysisError, NmlError):
            continue
        params, body = uncurry_lambda(program.binding(name).expr)
        for result in results:
            if result.param_spines < 1 or result.non_escaping_spines < 1:
                continue
            param = params[result.param_index - 1] if result.param_index <= len(params) else None
            if param is None:
                continue
            sites = select_reuse_sites(body, param, donor_type=result.param_type)
            if not sites:
                continue
            plan.decisions.append(
                Decision(
                    kind="reuse",
                    function=name,
                    param_index=result.param_index,
                    justification=(
                        f"top {result.non_escaping_spines} spine(s) never escape "
                        f"(G = {result.result}); {len(sites)} DCONS site(s)"
                    ),
                    obligation=(
                        f"the actual argument's top spine is unshared "
                        f"(Theorem 2 or freshness)"
                    ),
                    span=sites[0].span,
                )
            )

    # -- stack / block candidates on the result call ----------------------
    head, args = uncurry_app(program.body)
    if args and isinstance(head, Var):
        try:
            locals_ = analysis.local_test(program.body)
        except BudgetExceeded:
            raise
        except (AnalysisError, NmlError):
            locals_ = []
        for result, arg in zip(locals_, args):
            if result.param_spines < 1 or result.non_escaping_spines < 1:
                continue
            if _is_literal_chain(arg):
                plan.decisions.append(
                    Decision(
                        kind="stack",
                        function="<body>",
                        param_index=result.param_index,
                        justification=(
                            f"literal argument; top {result.non_escaping_spines} "
                            f"spine(s) die with the call (L = {result.result})"
                        ),
                        span=arg.span,
                    )
                )
                continue
            arg_head, arg_args = uncurry_app(arg)
            if (
                isinstance(arg_head, Var)
                and arg_head.name in program.binding_names()
                and arg_args
            ):
                plan.decisions.append(
                    Decision(
                        kind="block",
                        function=arg_head.name,
                        param_index=result.param_index,
                        justification=(
                            f"produced list's top {result.non_escaping_spines} "
                            f"spine(s) die with the consumer (L = {result.result})"
                        ),
                        span=arg.span,
                    )
                )

    for decision in plan.decisions:
        obs.emit(
            "decision",
            kind=decision.kind,
            function=decision.function,
            param=decision.param_index,
            justification=decision.justification,
        )
    return plan


def _analysis_for(
    program: Program, session: "AnalysisSession | None"
) -> "EscapeAnalysis | None":
    """The facade a rewrite of ``program`` asks its escape facts through:
    a session derived from ``session``, or ``None`` (the rewrite then
    builds a fresh analysis of its own)."""
    if session is None:
        return None
    return EscapeAnalysis(program, session=session.derive(program))


def apply_reuse_decision(
    program: Program,
    decision: Decision,
    session: "AnalysisSession | None" = None,
) -> tuple[Program, list[str]]:
    """Apply one *reuse* decision: add the specialization and, when the
    result call's actual argument is a literal (fresh, therefore unshared),
    redirect the body to it.  Raises ``OptimizationError`` if inapplicable;
    the input program is returned unchanged on failure paths above this
    call because every transformation builds a fresh program.

    ``session`` lets the escape gate reuse that session's caches through a
    derived session (:meth:`repro.query.AnalysisSession.derive`)."""
    log: list[str] = []
    result = make_reuse_specialization(
        program,
        decision.function,
        decision.param_index,
        analysis=_analysis_for(program, session),
    )
    program = result.program
    log.append(f"added {result.new_name} ({result.rewritten_sites} DCONS site(s))")
    head, args = uncurry_app(program.body)
    body_callee = head.name if isinstance(head, Var) else None
    if (
        body_callee == decision.function
        and decision.param_index <= len(args)
        and _is_literal_chain(args[decision.param_index - 1])
    ):
        program = redirect_body_calls(program, decision.function, result.new_name)
        log.append(
            f"redirected the result call to {result.new_name} "
            "(literal argument is unshared)"
        )
    return program, log


def apply_stack_decision(
    program: Program, session: "AnalysisSession | None" = None
) -> tuple[Program, list[str]]:
    """Apply the (single) stack-allocation rewrite of the result call."""
    result = stack_allocate_body(program, analysis=_analysis_for(program, session))
    return result.program, [
        f"stack-allocated {result.annotated_sites} literal cons site(s)"
    ]


def apply_block_decision(
    program: Program,
    decision: Decision,
    session: "AnalysisSession | None" = None,
) -> tuple[Program, list[str]]:
    """Apply one *block* decision: the producer's spine goes to a block."""
    result = block_allocate_producer(
        program, decision.function, analysis=_analysis_for(program, session)
    )
    return result.program, [
        f"block-allocated {decision.function} ({result.annotated_sites} site(s))"
    ]


def apply_plan(
    plan: OptimizationPlan,
    session: "AnalysisSession | None" = None,
    meter: "BudgetMeter | None" = None,
) -> PipelineResult:
    """Apply the plan's decisions in plan order; the one loop that does.

    Before each step the fault stage named by the decision's kind
    (:mod:`repro.robust.faults`) and, with ``meter``, the budget's deadline
    are checked.  The body's stack rewrite covers every stack decision, so
    it runs at most once.  A step that fails with an error
    :func:`~repro.robust.errors.classify` does not call fatal is skipped
    and recorded in ``degradations``; the next step starts from the last
    good program, because each step either returns a complete fresh
    program or raises.  Fatal errors propagate.

    With ``session`` (typically the planner's), every rewrite asks its
    escape facts through a session derived from it, so facts the planner
    already solved — and every binding a rewrite leaves unchanged — are
    cache hits.  Without it each rewrite analyzes from scratch."""
    program = plan.program
    applied: list[str] = []
    degradations: list[Degradation] = []
    stack_tried = False
    for decision in plan.decisions:
        if decision.kind == "stack":
            if stack_tried:
                continue
            stack_tried = True
        try:
            faults.check_stage(decision.kind)
            if meter is not None:
                meter.check_deadline()
            if decision.kind == "reuse":
                program, lines = apply_reuse_decision(program, decision, session)
            elif decision.kind == "stack":
                program, lines = apply_stack_decision(program, session)
            else:
                program, lines = apply_block_decision(program, decision, session)
        except Exception as error:
            if classify(error) is Severity.FATAL:
                raise
            obs.emit("transform_skipped", kind=decision.kind, reason=str(error))
            degradations.append(
                degradation_for(error, f"{decision.kind}:{decision.function}", meter)
            )
            continue
        applied.extend(lines)
        obs.emit("transform_applied", kind=decision.kind, detail="; ".join(lines))
    return PipelineResult(program, applied, degradations)


def harden_optimize(
    program: Program,
    budget: "AnalysisBudget | None" = None,
    validate: bool = False,
    collector: "str | None" = None,
    session: "AnalysisSession | None" = None,
) -> PipelineResult:
    """Plan and apply every licensed optimization under ``budget``,
    degrading soundly: the result is always a correct (possibly
    unoptimized) program plus a degradation report.

    A planning failure returns the input program.  Fatal errors
    (untypeable program, tripped soundness tripwires outside the
    validation run) propagate; everything else is recorded, and each
    record is also emitted as a ``degradation`` event.

    With ``validate=True`` the optimized program is run against the
    original on the instrumented heap, under ``collector``
    (:mod:`repro.semantics.gc`) with the GC armed when one is named.  Any
    divergence or runtime tripwire discards every transform and records
    why, so the optimized program is never returned unless it observably
    behaves like the original.

    One query session (``session``, or one opened here for ``program``)
    serves the survey and every rewrite step, so facts the survey already
    solved are cache hits, and a store attached to ``session`` is read and
    written by all of them.
    """
    # Imported here: `repro check` loads this module and needs no budget.
    from repro.robust.budget import AnalysisBudget

    meter = (budget or AnalysisBudget()).start()
    try:
        faults.check_stage("plan")
        meter.check_deadline()
        if session is None:
            session = AnalysisSession(program)
        plan = plan_optimizations(program, meter=meter, session=session)
    except Exception as error:
        if classify(error) is Severity.FATAL:
            raise
        result = PipelineResult(program, [], [degradation_for(error, "plan", meter)])
    else:
        result = apply_plan(plan, session=session, meter=meter)
        if validate and result.program is not program:
            failure = _validation_failure(program, result.program, collector)
            if failure is not None:
                result = PipelineResult(
                    program,
                    [],
                    [*result.degradations, degradation_for(failure, "validate", meter)],
                )
    for degradation in result.degradations:
        obs.emit("degradation", reason=degradation.reason, stage=degradation.stage)
    return result


def _validation_failure(
    original: Program, optimized: Program, collector: "str | None"
) -> "Exception | None":
    """Why ``optimized`` does not behave like ``original``, or ``None``."""
    # Imported here: planning and applying need no runtime.
    from repro.analysis.heap_liveness import analyze_program
    from repro.semantics.interp import run_program

    faults.check_stage("validate")
    run_kwargs: dict = {"sanitize": True}
    if collector is not None:
        run_kwargs.update(auto_gc=True, gc_threshold=64, collector=collector)
        if collector == "liveness":
            facts = analyze_program(optimized)
            run_kwargs["liveness"] = None if facts.degraded else facts.budget_map()
    baseline, _ = run_program(original)  # failures here are the program's own
    try:
        result, _ = run_program(optimized, **run_kwargs)
    except Exception as error:
        # Anything wrong with the *transformed* program — including a
        # tripped UseAfterFreeError — discards the transforms.
        return error
    if result != baseline:
        return ValueError(
            f"optimized program computed {result!r}, original computed {baseline!r}"
        )
    return None

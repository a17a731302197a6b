"""The optimization driver: from analysis facts to an explicit plan.

``plan_optimizations`` surveys a whole program and records every storage
decision the escape + sharing facts license, with its justification — the
artifact a compiler would act on (and a user can audit):

* *reuse* — function parameters whose non-escaping top spines have eligible
  DCONS sites (plus the Theorem 2 obligation the caller must discharge);
* *stack* — result-call arguments whose literal spines never escape the
  call (§A.3.1);
* *block* — result-call arguments produced by a top-level function whose
  product's top spine dies with the call (§A.3.3).

``apply_plan`` then performs the safe subset mechanically: all reuse
specializations are added, body calls are redirected to them when the
actual argument is a literal (fresh, hence unshared), and the stack/block
rewrites are applied when their decisions are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sharing import sharing_global
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
from repro.lang.errors import NO_SPAN, AnalysisError, NmlError, OptimizationError, SourceSpan
from repro.obs import tracer as obs
from repro.opt.block_alloc import block_allocate_producer
from repro.opt.reuse import make_reuse_specialization, redirect_body_calls, select_reuse_sites
from repro.opt.stack_alloc import stack_allocate_body
from repro.robust.errors import BudgetExceeded

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.query import AnalysisSession
    from repro.robust.budget import BudgetMeter


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
    plan: OptimizationPlan, session: "AnalysisSession | None" = None
) -> tuple[Program, list[str]]:
    """Mechanically apply the plan's safe subset; returns the transformed
    program and a log of the steps taken.  Inapplicable steps are skipped
    and logged; the program is never left partially transformed because
    each step either returns a complete fresh program or raises.

    With ``session`` (typically the planner's), every rewrite asks its
    escape facts through a session derived from it, so facts the planner
    already solved — and every binding a rewrite leaves unchanged — are
    cache hits.  Without it each rewrite analyzes from scratch."""
    program = plan.program
    log: list[str] = []

    for decision in plan.by_kind("reuse"):
        try:
            program, step_log = apply_reuse_decision(program, decision, session)
            log.extend(step_log)
            obs.emit("transform_applied", kind="reuse", detail="; ".join(step_log))
        except OptimizationError as error:
            log.append(f"skip reuse {decision.function}: {error.message}")
            obs.emit("transform_skipped", kind="reuse", reason=error.message)

    if plan.by_kind("stack"):
        try:
            program, step_log = apply_stack_decision(program, session)
            log.extend(step_log)
            obs.emit("transform_applied", kind="stack", detail="; ".join(step_log))
        except OptimizationError as error:
            log.append(f"skip stack allocation: {error.message}")
            obs.emit("transform_skipped", kind="stack", reason=error.message)

    for decision in plan.by_kind("block"):
        try:
            program, step_log = apply_block_decision(program, decision, session)
            log.extend(step_log)
            obs.emit("transform_applied", kind="block", detail="; ".join(step_log))
        except OptimizationError as error:
            log.append(f"skip block allocation of {decision.function}: {error.message}")
            obs.emit("transform_skipped", kind="block", reason=error.message)

    return program, log

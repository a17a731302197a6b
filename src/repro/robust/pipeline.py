"""The hardened optimization pipeline.

:func:`harden_optimize` surveys a program and applies every licensed
storage optimization under a budget, with the robustness contract the
tentpole demands: **the pipeline always yields a correct (possibly
unoptimized) program plus a degradation report, never a partial
transform.**  Each step — every reuse specialization, the stack rewrite,
each block rewrite — is applied atomically (the underlying transformations
build fresh programs or raise); a step that fails, breaches the budget, or
hits an injected fault is *skipped and recorded* as a
:class:`~repro.robust.errors.Degradation`, and the pipeline continues from
the last good program.

With ``validate=True`` the transformed program is executed against the
original on the instrumented heap; any divergence or runtime tripwire
(:class:`~repro.lang.errors.UseAfterFreeError`) discards *all*
optimizations and records why — the optimized program is never returned
unless it observably behaves like the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.heap_liveness import analyze_program
from repro.lang.ast import Program
from repro.obs import tracer as obs
from repro.robust import faults
from repro.robust.budget import AnalysisBudget, BudgetMeter
from repro.robust.errors import Degradation, Severity, classify, reason_for
from repro.opt.driver import (
    Decision,
    apply_block_decision,
    apply_reuse_decision,
    apply_stack_decision,
    plan_optimizations,
)
from repro.query import AnalysisSession
from repro.semantics.interp import run_program


@dataclass
class HardenedPipelineResult:
    """What the hardened pipeline produced.

    ``program`` is always valid: the fully optimized program when every
    step landed, the input program when nothing could be (or validation
    rejected the transforms), or anything in between — with every skipped
    step accounted for in ``degradations``.
    """

    program: Program
    applied: list[str] = field(default_factory=list)
    degradations: list[Degradation] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def summary(self) -> str:
        lines = [f"applied: {step}" for step in self.applied]
        lines += [str(d) for d in self.degradations]
        if not lines:
            lines = ["no storage optimization is licensed by the analysis"]
        return "\n".join(lines) + "\n"


def _degradation(
    error: BaseException, stage: str, meter: BudgetMeter
) -> Degradation:
    obs.emit("degradation", reason=reason_for(error), stage=stage)
    return Degradation(
        reason=reason_for(error),
        stage=stage,
        message=str(error),
        spent=meter.spent(),
        error=error,
    )


def harden_optimize(
    program: Program,
    budget: AnalysisBudget | None = None,
    validate: bool = False,
    collector: "str | None" = None,
    session: "AnalysisSession | None" = None,
) -> HardenedPipelineResult:
    """Plan and apply every licensed optimization, degrading soundly.

    Fatal errors (untypeable program, tripped soundness tripwires outside
    the validation run) propagate; everything else is recorded and skipped.

    With ``collector`` set, the validation run executes the optimized
    program under that zoo member (:mod:`repro.semantics.gc`) with the GC
    armed — a collector-induced misbehaviour (wrong result, sanitizer
    halt) discards the transforms exactly like any other validation
    failure.

    One query session (``session``, or one opened here for ``program``)
    serves the survey and every rewrite step: each step asks its escape
    facts through a session derived from it, so facts the survey already
    solved are cache hits, and a store attached to ``session`` is read
    and written by all of them.
    """
    meter = (budget or AnalysisBudget()).start()
    result = HardenedPipelineResult(program=program)

    # -- survey ------------------------------------------------------------
    try:
        faults.check_stage("plan")
        meter.check_deadline()
        if session is None:
            session = AnalysisSession(program)
        plan = plan_optimizations(program, meter=meter, session=session)
    except Exception as error:
        if classify(error) is Severity.FATAL:
            raise
        result.degradations.append(_degradation(error, "plan", meter))
        return result
    result.decisions = list(plan.decisions)

    # -- apply, step by step ----------------------------------------------
    current = program
    stack_done = False
    for decision in plan.decisions:
        stage = f"{decision.kind}:{decision.function}"
        if decision.kind == "stack" and stack_done:
            continue
        try:
            faults.check_stage(decision.kind)
            meter.check_deadline()
            if decision.kind == "reuse":
                current, step_log = apply_reuse_decision(current, decision, session)
            elif decision.kind == "stack":
                current, step_log = apply_stack_decision(current, session)
                stack_done = True
            else:
                current, step_log = apply_block_decision(current, decision, session)
            result.applied.extend(step_log)
            obs.emit(
                "transform_applied", kind=decision.kind, detail="; ".join(step_log)
            )
        except Exception as error:
            if classify(error) is Severity.FATAL:
                raise
            obs.emit(
                "transform_skipped", kind=decision.kind, reason=reason_for(error)
            )
            # Skip and record; `current` is still the last good program.
            result.degradations.append(_degradation(error, stage, meter))

    # -- optional end-to-end validation -----------------------------------
    if validate and current is not program:
        faults.check_stage("validate")
        run_kwargs: dict = {"sanitize": True}
        if collector is not None:
            run_kwargs.update(auto_gc=True, gc_threshold=64, collector=collector)
            if collector == "liveness":
                facts = analyze_program(current)
                run_kwargs["liveness"] = (
                    None if facts.degraded else facts.budget_map()
                )
        baseline, _ = run_program(program)  # failures here are the program's own
        try:
            optimized, _ = run_program(current, **run_kwargs)
        except Exception as error:
            # Anything wrong with the *transformed* program — including a
            # tripped UseAfterFreeError — discards the transforms.
            result.degradations.append(_degradation(error, "validate", meter))
            result.program = program
            result.applied = []
            return result
        if optimized != baseline:
            result.degradations.append(
                _degradation(
                    ValueError(
                        f"optimized program computed {optimized!r}, "
                        f"original computed {baseline!r}"
                    ),
                    "validate",
                    meter,
                )
            )
            result.program = program
            result.applied = []
            return result

    result.program = current
    return result

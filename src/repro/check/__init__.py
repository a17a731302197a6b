"""``repro.check`` — the three-pass static verification subsystem.

One entry point, :func:`check_program`, runs

1. **lint** (:mod:`repro.check.lint`) — source hygiene over the resolved
   AST, anchored to parser spans;
2. **audit** (:mod:`repro.check.audit`) — independent re-derivation of
   every storage-optimization footprint from escape, sharing, and liveness
   facts;
3. **machine** (:mod:`repro.machine.verify`) — abstract interpretation of
   the compiled instruction stream for stack/slot/region discipline;

and folds every finding into one :class:`~repro.check.diagnostics
.CheckReport`.  Passes are contained: a pass that crashes is recorded in
``report.pass_errors`` (making the report not-ok) instead of sinking the
checker.  Each pass runs under an obs span (``check:<pass>``) and each
finding emits a ``check_rule_fired`` event, so traces show exactly which
rules fired where and how long each pass took.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.check.diagnostics import (
    REGISTRY,
    CheckReport,
    CheckSeverity,
    Diagnostic,
    Rule,
    RuleRegistry,
    rule,
)
from repro.lang.ast import Program
from repro.obs import tracer as obs

__all__ = [
    "REGISTRY",
    "CheckReport",
    "CheckSeverity",
    "Diagnostic",
    "Rule",
    "RuleRegistry",
    "CHECK_PASSES",
    "check_program",
    "rules_table",
]

CHK001 = rule(
    "CHK001",
    "checker-pass-crash",
    CheckSeverity.ERROR,
    "check",
    "a checker pass raised instead of reporting; finding set is incomplete",
)


def _run_lint(program: Program) -> list[Diagnostic]:
    from repro.check.lint import lint_program

    return lint_program(program)


def _run_audit(program: Program) -> list[Diagnostic]:
    from repro.check.audit import audit_program

    return audit_program(program)


def _run_machine(program: Program) -> list[Diagnostic]:
    from repro.machine.compiler import compile_program
    from repro.machine.verify import verify_program_code

    return verify_program_code(compile_program(program))


#: Pass name -> pass body, in execution order.
CHECK_PASSES: dict[str, Callable[[Program], list[Diagnostic]]] = {
    "lint": _run_lint,
    "audit": _run_audit,
    "machine": _run_machine,
}


def rules_table() -> str:
    """The rule table of every pass (what ``repro check --rules`` prints).

    A rule registers when its pass module is imported, and the passes
    import their modules only when they run, so load all three first."""
    import repro.check.audit  # noqa: F401
    import repro.check.lint  # noqa: F401
    import repro.machine.verify  # noqa: F401

    return REGISTRY.table()


def check_program(
    program: Program,
    passes: "Iterable[str] | None" = None,
    path: str = "",
) -> CheckReport:
    """Run the selected passes (all three by default) over ``program``."""
    report = CheckReport(path=path)
    selected = list(passes) if passes is not None else list(CHECK_PASSES)
    for name in selected:
        body = CHECK_PASSES.get(name)
        if body is None:
            raise ValueError(
                f"unknown check pass {name!r}; have {sorted(CHECK_PASSES)}"
            )
        started = time.perf_counter()
        with obs.span(f"check:{name}"):
            try:
                found = body(program)
            except Exception as error:  # contained: a crash is a finding
                report.pass_errors[name] = f"{type(error).__name__}: {error}"
                report.add(
                    Diagnostic(
                        CHK001,
                        f"{name} pass crashed: {type(error).__name__}: {error}",
                        context=name,
                    )
                )
                found = []
        report.pass_timings[name] = time.perf_counter() - started
        for diagnostic in found:
            report.add(diagnostic)
            obs.emit(
                "check_rule_fired",
                **{
                    "rule": diagnostic.rule.id,
                    "severity": diagnostic.severity.value,
                    "pass": name,
                    # Provenance extras for `repro explain`.
                    "message": diagnostic.message,
                    "span": str(diagnostic.span),
                    "context": diagnostic.context,
                },
            )
    return report

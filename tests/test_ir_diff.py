"""Differential properties between the worklist evaluator and the paper's
Kleene iteration.

:func:`repro.escape.abstract.kleene_solve` is the reference: it solves the
whole letrec knot jointly, by Kleene iteration over the AST, exactly as
§3.5 states the analysis.  The production analysis solves per SCC with
the worklist evaluator.  The least fixpoint of a monotone system does not
depend on the order the equations are applied in, so on the *same*
program both must produce bit-identical per-binding lattice fingerprints
and identical global escape tests.  Any divergence, on the corpus or on a
hypothesis-generated program, is a bug in one of them.
"""

from pathlib import Path

from hypothesis import HealthCheck, given, settings

from repro.escape.abstract import fingerprint, kleene_solve
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.global_test import run_global_test
from repro.lang.ast import clone_program
from repro.lang.parser import parse_program
from repro.lang.prelude import paper_map_pair, paper_partition_sort
from repro.types.types import arity

from .strategies import list_function_program

RELAXED = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: ``examples/*.nml`` plus the 200 generated programs.
CORPUS = sorted((Path(__file__).resolve().parent.parent / "examples").rglob("*.nml"))


def _reference_facts(program):
    """(per-binding fingerprint strings, per-function global test strings)
    from the Kleene reference."""
    evaluator, env = kleene_solve(program)
    fingerprints = {}
    decisions = {}
    for name in program.binding_names():
        ty = program.binding(name).expr.ty
        fingerprints[name] = str(fingerprint(env[name], ty, evaluator.chain))
        if arity(ty):
            decisions[name] = [
                str(run_global_test(evaluator, env, name, ty, i).result)
                for i in range(1, arity(ty) + 1)
            ]
    return fingerprints, decisions


def _production_facts(program):
    """The same facts from a production :class:`EscapeAnalysis`."""
    analysis = EscapeAnalysis(program)
    solved = analysis.solve(None)
    fingerprints = {}
    decisions = {}
    for name in program.binding_names():
        ty = analysis.binding_type(name, solved)
        fingerprints[name] = str(
            fingerprint(solved.env[name], ty, solved.evaluator.chain)
        )
        if arity(ty):
            decisions[name] = [str(r.result) for r in analysis.global_all(name)]
    return fingerprints, decisions


def _agree(program) -> None:
    reference = _reference_facts(clone_program(program))
    assert _production_facts(program) == reference


class TestEngineEquivalence:
    @RELAXED
    @given(case=list_function_program())
    def test_fingerprints_and_decisions_agree(self, case):
        program, _ = case
        _agree(program)

    def test_paper_programs_agree(self):
        for build in (paper_partition_sort, paper_map_pair):
            _agree(build())

    def test_corpus_agrees_with_the_reference(self):
        assert len(CORPUS) == 202
        mismatches = []
        for path in CORPUS:
            source = path.read_text()
            reference = _reference_facts(parse_program(source))
            if _production_facts(parse_program(source)) != reference:
                mismatches.append(path.name)
        assert mismatches == []

"""IR1 — the worklist engine vs the paper's Kleene iteration.

The acceptance gate of the IR refactor, run over the programs the
existing experiments already exercise: the AB4 Appendix-A table program
(``partition_sort``, every global question) and the SA1 transformed
artifacts (``APPEND'``, ``PS'``, ``PS''``, ``REV'``).  For every program:

* the production analysis and the reference
  (:func:`~repro.escape.abstract.kleene_solve`, the paper's Kleene
  iteration over the whole letrec knot) produce **bit-identical
  per-binding lattice fingerprints** (the worklist solver is a reordering
  of the same monotone system, so the least fixpoint cannot differ),
  additionally pinned against the committed oracle in
  ``benchmarks/ir_oracle.json`` so the CI ``ir-smoke`` job needs only the
  production run;
* the worklist engine performs **≥10× fewer evaluation steps** than the
  reference — transfer evals over the flat IR with instruction-level
  change propagation, per SCC, against whole-body re-evaluation of the
  joint knot per Kleene round.  Both counts include every global test.

The measured table is exported to ``BENCH_ir.json`` at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.tables import print_table
from repro.escape.abstract import fingerprint, kleene_solve
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.global_test import run_global_test
from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.opt.pipeline import (
    paper_ps_double_prime,
    paper_ps_prime,
    paper_rev_prime,
)
from repro.opt.reuse import make_reuse_specialization
from repro.types.types import arity

ORACLE_PATH = Path(__file__).resolve().parent / "ir_oracle.json"
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_ir.json"

#: The IR1 acceptance threshold: worklist does ≤ 1/10 of the reference's steps.
REDUCTION_FACTOR = 10


def _paper_append_prime():
    program = prelude_program(["append"], "append [1, 2] [3]")
    return make_reuse_specialization(
        program, "append", 1, new_name="append_reuse"
    ).program


#: name -> zero-argument builder (fresh AST per run).
PROGRAMS = {
    "partition_sort": paper_partition_sort,
    "APPEND'": _paper_append_prime,
    "PS'": lambda: paper_ps_prime().program,
    "PS''": lambda: paper_ps_double_prime().program,
    "REV'": lambda: paper_rev_prime().program,
}


def run_engine(build):
    """Solve ``build()`` with the production analysis and answer every
    global question.

    Returns (per-binding fingerprint strings, total evaluation steps).
    """
    program = build()
    analysis = EscapeAnalysis(program)
    solved = analysis.solve(None)
    for name in program.binding_names():
        if arity(analysis.scheme(name).body):
            analysis.global_all(name)
    chain = solved.evaluator.chain
    fingerprints = {
        name: str(
            fingerprint(
                solved.env[name], solved.program.binding(name).expr.ty, chain
            )
        )
        for name in program.binding_names()
    }
    return fingerprints, analysis.stats.eval_steps


def run_reference(build):
    """:func:`run_engine` for the Kleene reference: one joint solve of the
    whole knot, then every global question on its environment."""
    program = build()
    evaluator, env = kleene_solve(program)
    fingerprints = {}
    for name in program.binding_names():
        ty = program.binding(name).expr.ty
        fingerprints[name] = str(fingerprint(env[name], ty, evaluator.chain))
        for i in range(1, arity(ty) + 1):
            run_global_test(evaluator, env, name, ty, i)
    return fingerprints, evaluator.steps


def test_ir1_worklist_reduces_steps_with_identical_fingerprints(benchmark):
    oracle = json.loads(ORACLE_PATH.read_text())
    rows = []
    doc = {"reduction_factor": REDUCTION_FACTOR, "programs": {}}
    total_reference = total_worklist = 0

    for name, build in PROGRAMS.items():
        reference_fps, reference_steps = run_reference(build)
        worklist_fps, worklist_steps = run_engine(build)

        # Differential gate: bit-identical per-binding fingerprints.
        assert worklist_fps == reference_fps, name
        # Pin against the committed oracle (regenerate with
        # ``python benchmarks/test_ir_worklist.py`` if lattice semantics
        # legitimately change).
        assert worklist_fps == oracle[name], name

        # Cost gate, per program: the worklist engine is strictly cheaper
        # (the ≥10× bar is asserted over the whole set below — the tiny
        # SA1 specializations converge in so few steps that there is less
        # redundant work for change-propagation to eliminate).
        assert reference_steps > worklist_steps, (
            f"{name}: {reference_steps} reference vs {worklist_steps} worklist"
        )

        total_reference += reference_steps
        total_worklist += worklist_steps
        ratio = reference_steps / worklist_steps
        rows.append([name, reference_steps, worklist_steps, f"{ratio:.1f}x"])
        doc["programs"][name] = {
            "reference_eval_steps": reference_steps,
            "worklist_evals": worklist_steps,
            "reduction": round(ratio, 2),
            "fingerprints_identical": True,
        }

    assert total_reference >= REDUCTION_FACTOR * total_worklist
    doc["total"] = {
        "reference_eval_steps": total_reference,
        "worklist_evals": total_worklist,
        "reduction": round(total_reference / total_worklist, 2),
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    print_table(
        ["program", "reference steps", "worklist evals", "reduction"], rows
    )

    # Time the production configuration on the AB4 program.
    benchmark(lambda: run_engine(paper_partition_sort))


def _regenerate_oracle() -> None:
    """Rebuild ``ir_oracle.json`` from the Kleene reference."""
    oracle = {name: run_reference(build)[0] for name, build in PROGRAMS.items()}
    ORACLE_PATH.write_text(json.dumps(oracle, indent=2, sort_keys=True) + "\n")
    print(f"wrote {ORACLE_PATH}")


if __name__ == "__main__":
    _regenerate_oracle()

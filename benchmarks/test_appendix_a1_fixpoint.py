"""A1a — Appendix A.1: the fixpoint iterations for APPEND, SPLIT, PS.

The paper iterates each functional from bottom and shows convergence after
2 evaluations (the second confirming the first): append^(2) = append^(1),
split^(3) = split^(2), ps^(2) = ps^(1).  We count body re-evaluations until
the fingerprint stabilizes — detection costs one confirming pass, so the
counts are those paper counts plus one, and must stay that small.
"""

from repro.bench.tables import print_table
from repro.escape.abstract import kleene_solve
from repro.lang.prelude import paper_partition_sort, prelude_program


def solve(program):
    return kleene_solve(program)[0]


def test_a1_fixpoint_iteration_counts(benchmark):
    program = paper_partition_sort()
    evaluator = benchmark(solve, program)

    rows = []
    for trace in evaluator.traces:
        rows.append(
            [trace.name, trace.iterations, "yes" if trace.converged else "NO"]
        )
    print_table(
        ["function", "body evaluations", "converged"],
        rows,
        title="Appendix A.1 fixpoint iterations (joint letrec knot)",
    )
    for trace in evaluator.traces:
        assert trace.converged and not trace.widened
        assert trace.iterations <= 4  # paper: 2-3 plus the confirming pass


def test_a1_append_alone_converges_like_paper(benchmark):
    # Analyzed alone (as the paper presents it), append stabilizes at its
    # second evaluation; the third confirms it.
    evaluator = benchmark(solve, prelude_program(["append"]))
    trace = evaluator.traces[0]
    assert trace.converged
    assert trace.iterations == 2  # append⁽¹⁾ computed, append⁽²⁾ confirms it
    # The last two fingerprints are equal — the paper's append⁽²⁾ = append⁽¹⁾.
    assert trace.fingerprints[-1] == trace.fingerprints[-2]


def test_a1_derivation_replay(benchmark):
    # The paper writes out append⁽⁰⁾ = ⊥, append⁽¹⁾ = y ⊔ sub¹(x),
    # append⁽²⁾ = append⁽¹⁾.  Replaying G at each iterate shows the same
    # ascent: <0,0> then <1,0> stable.
    from repro.escape.report import fixpoint_derivation

    program = prelude_program(["append"])
    lines = benchmark(fixpoint_derivation, program, "append", 1)
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["<0,0>", "<1,0>", "<1,0>"]
    print()
    for line in lines:
        print(f"  {line}")


def test_a1_fixpoint_cost_scales_with_knot(benchmark):
    # Analysis cost in evaluator steps, per function subset.
    def steps(names):
        program = prelude_program(names)
        evaluator = solve(program)
        return evaluator.steps

    all_steps = benchmark(steps, ["append", "split", "ps"])
    append_steps = steps(["append"])
    assert all_steps > append_steps  # bigger knot, more work
    print_table(
        ["knot", "abstract evaluator steps"],
        [["append", append_steps], ["append+split+ps", all_steps]],
        title="fixpoint cost",
    )

"""AB1 — ablation: what the analysis costs, and what drives it.

The paper's §7 worries about "the computational complexity of finding
fixpoints of higher order functions".  This bench quantifies it on our
implementation: abstract-evaluator steps against (a) the B_e chain bound
``d`` and (b) the size of the letrec knot.
"""

from repro.bench.tables import print_table
from repro.escape.abstract import kleene_solve
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.ast import count_nodes
from repro.lang.prelude import prelude_program


def solve_steps(program, d=None):
    return kleene_solve(program, d=d)[0].steps


def test_ab1_cost_vs_chain_bound(benchmark):
    program = prelude_program(["ps"])
    rows = []
    for d in (1, 2, 4, 8):
        steps = solve_steps(program, d=d)
        rows.append([d, steps])
    # Deeper chains mean more sample points per fingerprint: cost must be
    # monotone in d.
    assert [r[1] for r in rows] == sorted(r[1] for r in rows)
    print_table(["d (B_e bound)", "evaluator steps"], rows, title="analysis cost vs d")
    benchmark(solve_steps, program, 2)


def test_ab1_cost_vs_knot_size(benchmark):
    knots = [
        ["append"],
        ["append", "rev"],
        ["ps"],
        ["ps", "rev", "length", "sum"],
    ]
    rows = []
    for names in knots:
        program = prelude_program(names)
        rows.append(
            ["+".join(names), count_nodes(program.letrec), solve_steps(program)]
        )
    assert rows[-1][2] > rows[0][2]
    print_table(
        ["knot", "AST nodes", "evaluator steps"], rows, title="analysis cost vs knot size"
    )
    benchmark(solve_steps, prelude_program(["ps"]))


def test_ab1_full_query_latency(benchmark):
    # The compile-time cost a user actually pays: one global query, end to
    # end (inference + fixpoint + test).
    program = prelude_program(["ps"])

    def query():
        return EscapeAnalysis(program).global_test("ps", 1)

    result = benchmark(query)
    assert str(result.result) == "<1,0>"


def test_ab1_higher_order_costs_more(benchmark):
    # Function-type parameters need function-space samples: map costs more
    # per AST node than same-size first-order code.
    first_order = prelude_program(["copy"])
    higher_order = prelude_program(["map"])
    fo_steps = solve_steps(first_order) / count_nodes(first_order.letrec)
    ho_steps = solve_steps(higher_order) / count_nodes(higher_order.letrec)
    assert ho_steps > fo_steps
    print_table(
        ["program", "steps per AST node"],
        [["copy (first-order)", f"{fo_steps:.1f}"], ["map (higher-order)", f"{ho_steps:.1f}"]],
        title="higher-order analysis overhead",
    )
    benchmark(solve_steps, higher_order)

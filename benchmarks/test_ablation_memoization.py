"""AB3 — ablation: memoized abstract application.

§7 worries the analysis may be impractical "due to the computational
complexity of finding fixpoints of higher order functions".  Abstract
evaluation is pure, so applications can be cached; this bench measures the
effect and asserts the results are bit-identical with and without it.
"""

from repro.bench.tables import print_table
from repro.escape.abstract import fingerprint, kleene_solve
from repro.escape.global_test import run_global_test
from repro.lang.prelude import prelude_program


def solve(names, memoize):
    program = prelude_program(names)
    evaluator, env = kleene_solve(program, memoize=memoize)
    return program, evaluator, env


def test_ab3_memoization_speedup_and_equivalence(benchmark):
    rows = []
    for names in (["append"], ["ps"], ["map"], ["ps", "rev", "isort"]):
        baseline_program, baseline_ev, baseline_env = solve(names, memoize=False)
        memo_program, memo_ev, memo_env = solve(names, memoize=True)

        # identical analysis results at every binding (extensional equality)
        for name in baseline_program.binding_names():
            ty = baseline_program.binding(name).expr.ty
            assert fingerprint(baseline_env[name], ty, baseline_ev.chain) == fingerprint(
                memo_env[name], memo_program.binding(name).expr.ty, memo_ev.chain
            )

        speedup = baseline_ev.steps / max(1, memo_ev.steps)
        assert memo_ev.steps <= baseline_ev.steps
        rows.append(
            ["+".join(names), baseline_ev.steps, memo_ev.steps, f"{speedup:.1f}x"]
        )

    # the win grows with knot size / recursion depth
    assert rows[1][1] / rows[1][2] > rows[0][1] / rows[0][2]

    print_table(
        ["knot", "steps (no memo)", "steps (memo)", "speedup"],
        rows,
        title="AB3: memoized abstract application",
    )

    benchmark(solve, ["ps"], True)


def test_ab3_global_results_unchanged(benchmark):
    def query(memoize):
        program, evaluator, env = solve(["ps"], memoize)
        return run_global_test(
            evaluator, env, "ps", program.binding("ps").expr.ty, 1
        ).result

    assert str(query(False)) == str(query(True)) == "<1,0>"
    benchmark(query, True)

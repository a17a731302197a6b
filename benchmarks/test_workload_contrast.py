"""W1 — applicability contrast: partition sort vs mergesort.

The analysis doesn't just enable optimizations — it *refuses* them where
they'd be unsound.  `ps` never returns its argument's spine (`G = <1,0>`),
so its cells are reusable; `msort` returns its argument for singletons and
`merge` returns input suffixes (`G = <1,1>` everywhere), so the planner
must produce zero reuse decisions for it.
"""

import pytest

from repro.bench.tables import print_table
from repro.bench.workloads import literal, random_int_list
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.prelude import prelude_program
from repro.opt.driver import apply_plan, plan_optimizations
from repro.semantics.interp import run_program


def test_w1_planner_contrast(benchmark):
    values = random_int_list(24, seed=13)

    def plans():
        ps_plan = plan_optimizations(prelude_program(["ps"], f"ps {literal(values)}"))
        msort_plan = plan_optimizations(
            prelude_program(["msort"], f"msort {literal(values)}")
        )
        return ps_plan, msort_plan

    ps_plan, msort_plan = benchmark.pedantic(plans, rounds=1, iterations=1)

    assert len(ps_plan.by_kind("reuse")) >= 3  # append, split, ps
    assert ps_plan.by_kind("stack")  # the literal is safe in ps's activation
    assert msort_plan.by_kind("reuse") == []  # every spine escapes
    assert msort_plan.by_kind("stack") == []  # the literal escapes msort

    print_table(
        ["workload", "reuse decisions", "stack decisions", "why"],
        [
            ["ps (partition sort)", len(ps_plan.by_kind("reuse")),
             len(ps_plan.by_kind("stack")), "G(ps,1)=<1,0>: spine dies with the call"],
            ["msort (mergesort)", 0, 0, "G(msort,1)=<1,1>: singleton case returns l"],
        ],
        title="W1: the analysis grants and refuses optimizations per workload",
    )


def test_w1_applied_plans_behave(benchmark):
    values = random_int_list(24, seed=14)
    ps_program = prelude_program(["ps"], f"ps {literal(values)}")
    msort_program = prelude_program(["msort"], f"msort {literal(values)}")

    def run_both():
        ps_opt = apply_plan(plan_optimizations(ps_program)).program
        msort_opt = apply_plan(plan_optimizations(msort_program)).program
        return run_program(ps_opt), run_program(msort_opt), run_program(ps_program), run_program(msort_program)

    (ps_opt_res, ps_opt_m), (ms_opt_res, ms_opt_m), (ps_res, ps_m), (ms_res, ms_m) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    assert ps_opt_res == ps_res == sorted(values)
    assert ms_opt_res == ms_res == sorted(values)
    # ps improves; msort is untouched (no licensed decision changed it)
    assert ps_opt_m.heap_allocs < ps_m.heap_allocs
    assert ms_opt_m.heap_allocs == ms_m.heap_allocs
    assert ms_opt_m.reused == 0

    print_table(
        ["workload", "baseline heap cells", "after plan", "reused"],
        [
            ["ps", ps_m.heap_allocs, ps_opt_m.heap_allocs, ps_opt_m.reused],
            ["msort", ms_m.heap_allocs, ms_opt_m.heap_allocs, ms_opt_m.reused],
        ],
        title="W1: plan application effects",
    )

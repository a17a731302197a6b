"""Optimization driver tests: planning and mechanical application."""

import pytest

from repro.lang.prelude import prelude_program
from repro.opt.driver import apply_plan, plan_optimizations
from repro.semantics.interp import run_program


class TestPlanning:
    def test_partition_sort_plan(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        reuse = plan.by_kind("reuse")
        # append param 1, split param 2, ps param 1 are all reusable
        assert {(d.function, d.param_index) for d in reuse} >= {
            ("append", 1),
            ("split", 2),
            ("ps", 1),
        }
        # the literal argument of the result call is stack-allocatable
        assert [(d.function, d.param_index) for d in plan.by_kind("stack")] == [
            ("<body>", 1)
        ]

    def test_producer_consumer_plan(self):
        program = prelude_program(["ps", "create_list"], "ps (create_list 8)")
        plan = plan_optimizations(program)
        blocks = plan.by_kind("block")
        assert [(d.function, d.param_index) for d in blocks] == [("create_list", 1)]

    def test_escaping_args_produce_no_decisions(self):
        program = prelude_program(["drop"], "drop 1 [1, 2, 3]")
        plan = plan_optimizations(program)
        assert plan.by_kind("stack") == []
        assert plan.by_kind("reuse") == []

    def test_reuse_decisions_carry_obligations(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        assert all("unshared" in d.obligation for d in plan.by_kind("reuse"))

    def test_summary_renders(self, partition_sort):
        text = plan_optimizations(partition_sort).summary()
        assert "[reuse]" in text and "[stack]" in text

    def test_empty_plan_summary(self):
        program = prelude_program(["length"], "length [1]")
        plan = plan_optimizations(program)
        assert plan.by_kind("reuse") == []
        assert "no storage optimization" in plan.summary() or plan.decisions


class TestApplication:
    def test_apply_preserves_results(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        optimized, log, _ = apply_plan(plan)
        assert run_program(optimized)[0] == run_program(partition_sort)[0]
        assert any("DCONS" in line for line in log)

    def test_apply_redirects_literal_call(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        optimized, log, _ = apply_plan(plan)
        _, metrics = run_program(optimized)
        # the body call goes to ps_reuse, so cells are recycled
        assert metrics.reused > 0
        assert any("redirected" in line for line in log)

    def test_apply_block_plan(self):
        program = prelude_program(["ps", "create_list"], "ps (create_list 10)")
        plan = plan_optimizations(program)
        optimized = apply_plan(plan).program
        result, metrics = run_program(optimized)
        assert result == list(range(1, 11))
        assert metrics.block_reclaimed == 10

    def test_apply_improves_heap_traffic(self, partition_sort):
        _, baseline = run_program(partition_sort)
        optimized = apply_plan(plan_optimizations(partition_sort)).program
        _, metrics = run_program(optimized)
        assert metrics.heap_allocs < baseline.heap_allocs

"""Pipeline recipes: the paper's PS', PS'', REV', stack and block
allocation — with differential correctness and storage-improvement
assertions."""

import pytest

from repro.bench.workloads import literal, random_int_list, reference_ps, reference_rev
from repro.lang.prelude import prelude_program
from repro.opt.pipeline import (
    paper_block_allocated,
    paper_ps_double_prime,
    paper_ps_prime,
    paper_rev_prime,
    paper_stack_allocated,
)
from repro.semantics.interp import run_program


class TestPsPrime:
    def test_correct_on_paper_input(self):
        result, _ = run_program(paper_ps_prime().program)
        assert result == [1, 2, 3, 4, 5, 7]

    def test_reuses_cells_and_reduces_heap(self):
        _, baseline = run_program(prelude_program(["ps"], "ps [5, 2, 7, 1, 3, 4]"))
        _, optimized = run_program(paper_ps_prime().program)
        assert optimized.reused > 0
        assert optimized.heap_allocs < baseline.heap_allocs
        assert optimized.cells_constructed == baseline.heap_allocs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_correct_on_random_inputs(self, seed):
        values = random_int_list(25, seed=seed)
        result, _ = run_program(paper_ps_prime(f"ps {literal(values)}").program)
        assert result == reference_ps(values)


class TestPsDoublePrime:
    def test_correct_on_paper_input(self):
        result, _ = run_program(paper_ps_double_prime().program)
        assert result == [1, 2, 3, 4, 5, 7]

    def test_strictly_better_than_ps_prime(self):
        _, prime = run_program(paper_ps_prime().program)
        _, double = run_program(paper_ps_double_prime().program)
        assert double.reused > prime.reused
        assert double.heap_allocs < prime.heap_allocs

    @pytest.mark.parametrize("seed", [4, 5])
    def test_correct_on_random_inputs(self, seed):
        values = random_int_list(20, seed=seed)
        result, _ = run_program(paper_ps_double_prime(f"ps {literal(values)}").program)
        assert result == reference_ps(values)


class TestRevPrime:
    def test_correct(self):
        result, _ = run_program(paper_rev_prime().program)
        assert result == [5, 4, 3, 2, 1]

    def test_near_total_reuse(self):
        # naive reverse allocates Θ(n²) cells; REV' recycles almost all of
        # them, leaving only the per-level singleton [car l].
        n = 10
        values = list(range(n))
        _, baseline = run_program(prelude_program(["rev"], f"rev {literal(values)}"))
        _, optimized = run_program(paper_rev_prime(f"rev {literal(values)}").program)
        assert optimized.heap_allocs + optimized.reused == baseline.heap_allocs
        # all but the n singleton allocations (and the literal) are reused
        assert optimized.heap_allocs <= 2 * n
        assert baseline.heap_allocs >= n * (n - 1) // 2

    @pytest.mark.parametrize("seed", [6, 7])
    def test_correct_on_random_inputs(self, seed):
        values = random_int_list(30, seed=seed)
        result, _ = run_program(paper_rev_prime(f"rev {literal(values)}").program)
        assert result == reference_rev(values)


class TestStackAndBlockRecipes:
    def test_paper_stack_allocated(self):
        result = paper_stack_allocated()
        output, metrics = run_program(result.program)
        assert output == [1, 2, 3, 4, 5, 7]
        assert metrics.stack_reclaimed == 6

    def test_paper_block_allocated(self):
        result = paper_block_allocated(9)
        output, metrics = run_program(result.program)
        assert output == list(range(1, 10))
        assert metrics.block_reclaimed == 9

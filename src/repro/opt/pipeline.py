"""Ready-made optimization recipes, including the paper's own artifacts.

* :func:`paper_ps_prime`        — §A.3.2's ``PS'``: partition sort whose
  ``APPEND`` calls go to the reuse specialization ``APPEND'`` (safe because
  the first argument of ``APPEND`` inside ``PS`` is a ``PS`` result, whose
  top spine Theorem 2 proves unshared).
* :func:`paper_ps_double_prime` — §A.3.2's ``PS''``: additionally reuses
  the top-spine cells of ``PS``'s own argument (safe only when the actual
  argument is unshared — true for the program's literal list).
* :func:`paper_rev_prime`       — §A.3.2's ``REV'`` for the naive reverse.
* :func:`paper_stack_allocated` — §A.3.1 applied to the partition-sort
  program's literal argument.
* :func:`paper_block_allocated` — §A.3.3's ``PS (create_list i)`` with the
  producer's spine in a block region.
"""

from __future__ import annotations

from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.opt.block_alloc import BlockAllocResult, block_allocate_producer
from repro.opt.driver import PipelineResult
from repro.opt.reuse import (
    make_reuse_specialization,
    redirect_body_calls,
    redirect_calls,
)
from repro.opt.stack_alloc import StackAllocResult, stack_allocate_body


def paper_ps_prime(result: str = "ps [5, 2, 7, 1, 3, 4]") -> PipelineResult:
    """``PS'``: partition sort calling ``APPEND'`` (reuse of append's first
    argument, whose cells are PS-result cells and therefore unshared)."""
    program = paper_partition_sort(result)
    reuse = make_reuse_specialization(program, "append", 1, new_name="append_reuse")
    program = redirect_calls(reuse.program, "ps", "append", "append_reuse")
    return PipelineResult(
        program=program,
        applied=[
            f"specialized append -> append_reuse ({reuse.rewritten_sites} DCONS site)",
            "redirected append calls inside ps to append_reuse",
        ],
        degradations=[],
    )


def paper_ps_double_prime(result: str = "ps [5, 2, 7, 1, 3, 4]") -> PipelineResult:
    """``PS''``: PS' plus in-place reuse of PS's own argument spine.

    Only sound when PS's actual argument is unshared — true for the
    program's literal list (and for any freshly constructed argument).
    """
    base = paper_ps_prime(result)
    program = base.program
    reuse = make_reuse_specialization(program, "ps", 1, new_name="ps_reuse")
    program = redirect_calls(reuse.program, "ps_reuse", "append", "append_reuse")
    program = redirect_body_calls(program, "ps", "ps_reuse")
    return PipelineResult(
        program=program,
        applied=base.applied
        + [
            f"specialized ps -> ps_reuse ({reuse.rewritten_sites} DCONS site)",
            "redirected the program body to ps_reuse",
        ],
        degradations=[],
    )


def paper_rev_prime(result: str = "rev [1, 2, 3, 4, 5]") -> PipelineResult:
    """``REV'``: naive reverse reusing its argument's spine cells, calling
    ``APPEND'`` for the recursive append."""
    program = prelude_program(["rev"], result)
    append_reuse = make_reuse_specialization(program, "append", 1, new_name="append_reuse")
    rev_reuse = make_reuse_specialization(
        append_reuse.program, "rev", 1, new_name="rev_reuse"
    )
    program = redirect_calls(rev_reuse.program, "rev_reuse", "append", "append_reuse")
    program = redirect_body_calls(program, "rev", "rev_reuse")
    return PipelineResult(
        program=program,
        applied=[
            f"specialized append -> append_reuse ({append_reuse.rewritten_sites} DCONS site)",
            f"specialized rev -> rev_reuse ({rev_reuse.rewritten_sites} DCONS site)",
            "redirected append inside rev_reuse and the body to the specializations",
        ],
        degradations=[],
    )


def paper_stack_allocated(result: str = "ps [5, 2, 7, 1, 3, 4]") -> StackAllocResult:
    """§A.3.1: the literal list's spine lives in PS's activation record."""
    return stack_allocate_body(paper_partition_sort(result))


def paper_block_allocated(n: int = 100) -> BlockAllocResult:
    """§A.3.3: ``PS (create_list i)`` with the produced spine in a block."""
    program = prelude_program(
        ["append", "split", "ps", "create_list"], f"ps (create_list {n})"
    )
    return block_allocate_producer(program, "create_list")

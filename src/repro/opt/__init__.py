"""Storage optimizations driven by escape analysis: in-place reuse (DCONS),
stack allocation, and block allocation/reclamation."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.opt.block_alloc": ("BlockAllocResult", "block_allocate_producer"),
        "repro.opt.driver": (
            "Decision", "OptimizationPlan", "apply_plan", "plan_optimizations",
        ),
        "repro.opt.liveness": ("uses_var", "var_used_after"),
        "repro.opt.pipeline": (
            "PipelineResult", "auto_reuse", "paper_block_allocated",
            "paper_ps_double_prime", "paper_ps_prime", "paper_rev_prime",
            "paper_stack_allocated",
        ),
        "repro.opt.reuse": (
            "ReuseResult", "make_reuse_specialization", "redirect_body_calls",
            "redirect_calls", "select_reuse_sites",
        ),
        "repro.opt.stack_alloc": ("StackAllocResult", "stack_allocate_body"),
    },
)

"""Benchmark-harness support: workload generators, table rendering, and the
Figure 1 spine renderer."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.bench.figures": (
            "render_spines", "spine_census", "spine_figure", "spine_figure_of_expr",
        ),
        "repro.bench.tables": ("print_table", "render_table"),
        "repro.bench.workloads": (
            "literal", "ps_create_list_program", "ps_program", "random_int_list",
            "random_nested_list", "reference_ps", "reference_rev", "rev_program",
        ),
    },
)

"""The nml language front end: lexer, parser, AST, resolver, pretty printer,
and a prelude of standard list functions."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.lang.ast": (
            "App", "Binding", "BoolLit", "Expr", "If", "IntLit", "Lambda",
            "Letrec", "NilLit", "Prim", "Program", "Var", "apply_n",
            "cons_list", "count_nodes", "free_vars", "lambda_n", "transform",
            "uncurry_app", "uncurry_lambda", "walk",
        ),
        "repro.lang.errors": (
            "AnalysisError", "EvalError", "LexError", "NmlError",
            "OptimizationError", "ParseError", "ResolveError", "SourceSpan",
            "TypeInferenceError", "UseAfterFreeError",
        ),
        "repro.lang.lexer": ("tokenize",),
        "repro.lang.parser": ("parse_expr", "parse_program"),
        "repro.lang.prelude": (
            "PRELUDE_DEFS", "paper_map_pair", "paper_partition_sort",
            "prelude_program", "prelude_source",
        ),
        "repro.lang.pretty": ("pretty", "pretty_program"),
    },
)

"""Escape analysis: lattices, abstract domains, exact and abstract
semantics, the global/local escape tests, and polymorphic invariance."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.escape.abstract": (
            "AbstractEvaluator", "FixpointTrace", "fingerprint", "sample_domain",
        ),
        "repro.escape.analyzer": ("EscapeAnalysis", "SolvedProgram"),
        "repro.escape.domain": (
            "BOTTOM", "ERR", "AbsFun", "ClosureFun", "ErrFun", "EscapeValue",
            "JoinFun", "PrimFun", "join_values",
        ),
        "repro.escape.exact": (
            "DualInterpreter", "ObservedEscape", "Source", "exact_escape",
            "observe_escape",
        ),
        "repro.escape.global_test": ("run_global_test",),
        "repro.escape.lattice": (
            "BeChain", "Escapement", "NONE_ESCAPES", "escapes_bottom", "join_all",
        ),
        "repro.escape.local_test": ("run_local_test",),
        "repro.escape.poly": (
            "DEFAULT_FILLERS", "InvarianceReport", "InvarianceRow",
            "check_invariance",
        ),
        "repro.escape.primitives": ("abstract_prim", "sub_s"),
        "repro.escape.report": ("analysis_report", "global_table"),
        "repro.escape.results": ("EscapeTestResult",),
        "repro.escape.worst": ("worst_fun", "worst_value"),
    },
)

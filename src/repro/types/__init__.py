"""nml type system: monotypes, schemes, unification, HM inference, spine
bookkeeping, and monomorphic instantiation."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.types.infer": (
            "InferenceResult", "default_instance", "infer_expr",
            "infer_program", "prim_scheme",
        ),
        "repro.types.instantiate": (
            "instantiate_scheme", "simplest_instance", "uniform_instances",
        ),
        "repro.types.spines": (
            "annotate_cars", "argument_spines", "car_spine_count",
            "cons_result_spines", "cons_sites", "program_spine_bound",
        ),
        "repro.types.types": (
            "BOOL", "INT", "TBool", "TFun", "TInt", "TList", "TProd", "TVar",
            "Type", "TypeScheme", "arity", "contains_function", "fresh_tvar",
            "free_type_vars", "fun_args", "is_list_type", "list_of",
            "max_spines_in", "spines",
        ),
        "repro.types.unify": ("Substitution", "unify"),
    },
)

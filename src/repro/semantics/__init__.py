"""The standard semantics substrate: instrumented heap, regions, mark-sweep
GC, and the strict interpreter."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.semantics.gc": ("GcStats", "MarkSweepGC"),
        "repro.semantics.heap": ("AllocKind", "Cell", "Heap", "Region"),
        "repro.semantics.interp": ("Interpreter", "run_program"),
        "repro.semantics.metrics": ("StorageMetrics",),
        "repro.semantics.values": (
            "FALSE", "NIL", "TRUE", "Env", "Value", "VBool", "VClosure",
            "VCons", "VInt", "VNil", "VPrim", "VTuple",
        ),
    },
)

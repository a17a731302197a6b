"""The abstract machine (§3.3's operational layer): instruction set,
compiler, static verifier, and the stack machine over the instrumented
heap."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.machine.compiler": ("compile_expr", "compile_program"),
        "repro.machine.instructions": ("Code", "disassemble"),
        "repro.machine.machine": ("Machine", "MClosure", "run_compiled"),
        "repro.machine.verify": ("verify_code", "verify_program_code"),
    },
)

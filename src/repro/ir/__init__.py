"""``repro.ir`` — the flat instruction stream the worklist engine runs on.

Lowering (:mod:`repro.ir.lower`) turns resolved, type-annotated nml
(:mod:`repro.lang.ast` after :mod:`repro.lang.resolve` and
:mod:`repro.types.infer`) into :class:`~repro.ir.nodes.Block` objects: one
instruction per AST node, explicit def–use edges, spans preserved, and
per-instruction transitive environment-dependency sets precomputed for the
worklist solver's change propagation (:mod:`repro.escape.worklist`).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.ir.lower": ("lower_binding", "lower_expr", "lower_program"),
        "repro.ir.nodes": ("OPS", "Block", "Instr"),
        "repro.ir.pretty": ("pretty_block", "pretty_blocks"),
    },
)

"""Spine bookkeeping: the ``car^s`` annotation and per-program ``d``.

§3.4 assumes every ``car`` in the program is annotated as ``car^s`` where
``s`` is the number of spines of its argument list — "statically determined
by type inference".  After :func:`repro.types.infer.infer_program` has run,
these helpers read the annotation off the node types.
"""

from __future__ import annotations

from repro.lang.ast import Prim, Program, walk
from repro.lang.errors import AnalysisError
from repro.types.types import TFun, TList, Type, max_spines_in, spines


def car_spine_count(prim: Prim) -> int:
    """The ``s`` of a ``car^s`` (or ``cdr^s``) occurrence.

    Reads the instantiated primitive type ``τ list → ...`` placed on the
    node by inference and returns ``spines(τ list)``.
    """
    if prim.name not in ("car", "cdr"):
        raise AnalysisError(f"car_spine_count on {prim.name!r}")
    if prim.ty is None:
        raise AnalysisError("primitive is not type-annotated; run infer_program first", prim.span)
    assert isinstance(prim.ty, TFun) and isinstance(prim.ty.arg, TList)
    return spines(prim.ty.arg)


def program_spine_bound(program: Program) -> int:
    """The program constant ``d``: the deepest spine count of any list type
    appearing anywhere in the (type-annotated) program.

    The ``B_e`` chain for the program is ⟨0,0⟩ ⊑ ⟨1,0⟩ ⊑ … ⊑ ⟨1,d⟩.  We
    floor it at 1 so even list-free programs get a non-degenerate chain.
    """
    deepest = 1
    for node in walk(program.letrec):
        if node.ty is not None:
            deepest = max(deepest, max_spines_in(node.ty))
    return deepest


def annotate_cars(program: Program) -> dict[int, int]:
    """Map node uid → ``s`` for every ``car``/``cdr`` occurrence, and also
    stamp it into ``node.annotations['spines']`` for tooling."""
    table: dict[int, int] = {}
    for node in walk(program.letrec):
        if isinstance(node, Prim) and node.name in ("car", "cdr") and node.ty is not None:
            s = car_spine_count(node)
            node.annotations["spines"] = s
            table[node.uid] = s
    return table


def argument_spines(fn_type: Type, n_args: int) -> list[int]:
    """Spine counts ``s_i`` of the first ``n_args`` parameters of a function
    type (0 for non-list parameters), per §4.1."""
    result: list[int] = []
    ty = fn_type
    for _ in range(n_args):
        if not isinstance(ty, TFun):
            raise AnalysisError(f"type {fn_type} does not take {n_args} arguments")
        result.append(spines(ty.arg))
        ty = ty.result
    return result

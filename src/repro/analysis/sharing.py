"""Sharing analysis derived from escape information (§6, Theorem 2).

For a strict language, escape analysis makes sharing analysis of lists
cheap.  Let ``f`` take ``n`` arguments with ``dᵢ`` spines each, return a
list with ``d_f`` spines, and let ``escᵢ`` be the escaping-spine count of
parameter ``i`` from the global escape test.  Then:

* **Clause 1** (call-specific): if ``uᵢ`` top spines of each actual
  argument are unshared, all cells in the top
  ``d_f − max_i min{escᵢ, dᵢ − uᵢ}`` spines of the result are unshared.
* **Clause 2** (any arguments): all cells in the top
  ``d_f − max_i escᵢ`` spines of the result are unshared.

An unshared result prefix is what licenses in-place reuse of its cells.
This module also provides a heap-level *observed* sharing measurement used
to validate the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.escape.results import EscapeResults
from repro.lang.ast import Program
from repro.lang.errors import AnalysisError
from repro.types.types import fun_args, spines

if TYPE_CHECKING:  # pragma: no cover
    from repro.semantics.interp import Interpreter
    from repro.semantics.values import Value


@dataclass(frozen=True)
class SharingInfo:
    """How many top spines of ``function``'s result are provably unshared."""

    function: str
    result_spines: int  # d_f
    arg_spines: tuple[int, ...]  # d_i
    escaping: tuple[int, ...]  # esc_i
    unshared_top_spines: int
    clause: int  # 1 or 2 of Theorem 2

    def describe(self) -> str:
        if self.unshared_top_spines <= 0:
            return f"no spine of {self.function}'s result is provably unshared"
        return (
            f"all cons cells in the top {self.unshared_top_spines} spine(s) "
            f"of {self.function}'s result are unshared"
        )


def _escape_inputs(analysis: EscapeResults, function: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    results = analysis.global_all(function)
    esc = tuple(r.escaping_spines for r in results)
    d = tuple(r.param_spines for r in results)
    fn_type = analysis.binding_type(function)
    result_type = fun_args(fn_type)[1]
    d_f = spines(result_type)
    if d_f == 0:
        raise AnalysisError(f"{function} does not return a list (type {fn_type})")
    return esc, d, d_f


def sharing_global(analysis: EscapeResults, function: str) -> SharingInfo:
    """Theorem 2, clause 2: valid for any arguments whatsoever."""
    esc, d, d_f = _escape_inputs(analysis, function)
    unshared = d_f - max(esc)
    return SharingInfo(
        function=function,
        result_spines=d_f,
        arg_spines=d,
        escaping=esc,
        unshared_top_spines=unshared,
        clause=2,
    )


def sharing_local(
    analysis: EscapeResults, function: str, unshared_args: list[int]
) -> SharingInfo:
    """Theorem 2, clause 1: ``unshared_args[i]`` is ``uᵢ``, the number of
    unshared top spines of the ``i``-th actual argument."""
    esc, d, d_f = _escape_inputs(analysis, function)
    if len(unshared_args) != len(d):
        raise AnalysisError(
            f"{function} takes {len(d)} arguments, got u for {len(unshared_args)}"
        )
    worst = 0
    for esc_i, d_i, u_i in zip(esc, d, unshared_args):
        if not 0 <= u_i <= d_i:
            raise AnalysisError(f"u must be within 0..{d_i}, got {u_i}")
        worst = max(worst, min(esc_i, d_i - u_i))
    return SharingInfo(
        function=function,
        result_spines=d_f,
        arg_spines=d,
        escaping=esc,
        unshared_top_spines=d_f - worst,
        clause=1,
    )


# ---------------------------------------------------------------------------
# Observed sharing (heap-level validation of Theorem 2)
# ---------------------------------------------------------------------------


def observed_unshared_spines(
    program: Program, function: str, args_python: list
) -> int:
    """Run ``function`` on concrete arguments and measure how many top
    spines of the result contain only unshared cells.

    A result cell is *shared* if it has more than one referrer among live
    data (other cells' car/cdr fields, the argument roots, or closure
    environments).  Returns the largest ``t`` such that every cell in
    result spine levels ``1..t`` is unshared — the quantity Theorem 2
    bounds from below.
    """
    from repro.escape.exact import Source
    from repro.semantics.interp import Interpreter
    from repro.semantics.values import VClosure, VCons, VPrim

    interp = Interpreter()
    fn_value = interp.eval_in(program, function)
    arg_values = [
        interp.eval_in(program, str(a)) if isinstance(a, Source) else interp.from_python(a)
        for a in args_python
    ]
    result = fn_value
    for value in arg_values:
        result = interp.apply(result, value)

    referrers: dict[int, int] = {}

    def note(value: Value) -> None:
        if isinstance(value, VCons):
            referrers[value.cell.id] = referrers.get(value.cell.id, 0) + 1

    # Count every reference among live structures: cells reachable from the
    # result and from the (still live) arguments.
    roots: list[Value] = [result, *arg_values]
    all_cells = interp.heap.reachable_cells(*roots)
    for cell in all_cells:
        if not cell.freed:
            note(cell.car)
            note(cell.cdr)
    for root in roots:
        note(root)
        if isinstance(root, VClosure):
            for bound in root.env.values():
                note(bound)
        if isinstance(root, VPrim):
            for held in root.args:
                note(held)

    by_level = interp.heap.spine_levels(result)
    if not by_level:
        # nil result: vacuously every spine is unshared.
        return spines_of_result_structure(interp, result)
    unshared_prefix = 0
    for level in range(1, max(by_level) + 1):
        cells = by_level.get(level, [])
        if all(referrers.get(cell.id, 0) <= 1 for cell in cells):
            unshared_prefix = level
        else:
            break
    return unshared_prefix


def spines_of_result_structure(interp: Interpreter, value: Value) -> int:
    by_level = interp.heap.spine_levels(value)
    return max(by_level) if by_level else 0

"""Worst-case escape functions ``W^τ`` (Definition 2, §4.1).

``W^τ`` is the abstract function of an nml function *from which every
argument escapes*::

    W^τ = λx1.⟨x1₍₁₎, λx2.⟨x1₍₁₎ ⊔ x2₍₁₎, … λxm.⟨⊔ xi₍₁₎, err⟩ …⟩⟩

where ``m`` is the number of arguments a value of type ``τ`` can take before
returning a primitive value, ``W^{τ list} = W^τ`` (the abstract list domain
collapses), and — for the tuple extension — ``W^{τ1×τ2}`` behaves as the
join of the components' worst functions (the collapsed tuple value could be
either component).  For base types, ``W^τ = err``.

The global escape test applies the function under analysis to worst-case
arguments ``⟨⟨1,sᵢ⟩, W^{τᵢ}⟩``, making its result valid for *every* possible
application.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.escape.domain import ERR, AbsFun, EscapeValue
from repro.escape.lattice import Escapement, NONE_ESCAPES
from repro.types.types import TFun, TList, TProd, Type, spines


def _strip_lists(ty: Type) -> Type:
    while isinstance(ty, TList):
        ty = ty.element
    return ty


@dataclass(frozen=True)
class WorstFun(AbsFun):
    """One step of the ``W^τ`` chain: consumes the next argument, joins its
    contained part into the accumulator, and continues (or bottoms out with
    ``err`` when no arguments remain)."""

    remaining: Type  # the function type still to be consumed (lists stripped)
    acc: Escapement

    def apply(self, arg: EscapeValue) -> EscapeValue:
        assert isinstance(self.remaining, TFun)
        acc = self.acc.join(arg.be)
        return EscapeValue(acc, _continue(self.remaining.result, acc))

    def __repr__(self) -> str:
        return f"W[{self.remaining}]@{self.acc}"


def _continue(ty: Type, acc: Escapement) -> AbsFun:
    """The function component of the worst-case value at type ``ty`` with
    ``acc`` already accumulated."""
    core = _strip_lists(ty)
    if isinstance(core, TFun):
        return WorstFun(core, acc)
    if isinstance(core, TProd):
        return _continue(core.fst, acc).join(_continue(core.snd, acc))
    return ERR


def worst_fun(ty: Type) -> AbsFun:
    """``W^τ`` as an :class:`AbsFun` (``err`` for base types)."""
    return _continue(ty, NONE_ESCAPES)


def worst_value(ty: Type, interesting: bool) -> EscapeValue:
    """The argument value the global test feeds parameter ``i``:
    ``⟨⟨1,sᵢ⟩, W^{τᵢ}⟩`` when interesting, ``⟨⟨0,0⟩, W^{τᵢ}⟩`` otherwise."""
    be = Escapement(1, spines(ty)) if interesting else NONE_ESCAPES
    return EscapeValue(be, worst_fun(ty))


def worst_escapement(ty: Type) -> Escapement:
    """The maximal escapement of an argument of type ``τ``: ⟨1, sᵢ⟩.

    This is what applying any function to ``worst_value(τ, True)`` can at
    most yield for that argument, so it is ⊒ every exact answer — the sound
    fallback a budgeted analysis degrades to when a query breaches its
    budget.
    """
    return Escapement(1, spines(ty))


def worst_test_result(
    function: str, i: int, param_type: Type, kind: str = "global", degradation=None
):
    """A ``W^τ``-derived worst-case escape-test result for parameter ``i``,
    carrying the ``degradation`` that called for it.

    Sound for every application (Definition 2): it reports that all ``sᵢ``
    spines of the argument may escape, which over-approximates whatever the
    exact analysis would have concluded.
    """
    from repro.escape.results import EscapeTestResult

    return EscapeTestResult(
        function=function,
        param_index=i,
        param_spines=spines(param_type),
        param_type=param_type,
        result=worst_escapement(param_type),
        kind=kind,
        degradation=degradation,
    )

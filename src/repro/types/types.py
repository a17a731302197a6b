"""Type representations for nml.

Monotypes are ``int``, ``bool``, ``τ list``, ``τ1 → τ2``, and inference
variables.  Polymorphic bindings get a :class:`TypeScheme` (∀-quantified
monotype), per §5 of the paper; the escape analysis itself always runs on a
monomorphic instance (Theorem 1 makes the choice of instance irrelevant).

The *spine count* of a type (Definition 1) is central to the analysis::

    spines(int) = spines(bool) = spines(τ1 → τ2) = 0
    spines(τ list) = 1 + spines(τ)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class Type:
    """Base class of all monotypes.  Types are immutable and hashable."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self) -> str:
        return "bool"


_tvar_counter = itertools.count(1)


@dataclass(frozen=True)
class TVar(Type):
    """An inference variable.  ``fresh_tvar`` allocates unique ids."""

    id: int

    def __str__(self) -> str:
        return f"t{self.id}"


def fresh_tvar() -> TVar:
    return TVar(next(_tvar_counter))


def reset_fresh_tvars(next_id: "int | None" = None) -> int:
    """Make :func:`fresh_tvar` hand out ``next_id`` next (by default the id
    it would hand out anyway); returns the id it would have handed out.

    A long-lived batch worker calls this before each file to restart from
    the id it was forked with, so no file sees how many variables earlier
    files used: snapshot scheme texts depend on the starting id."""
    global _tvar_counter
    current = next(_tvar_counter)
    _tvar_counter = itertools.count(current if next_id is None else next_id)
    return current


@dataclass(frozen=True)
class TList(Type):
    element: Type

    def __str__(self) -> str:
        inner = str(self.element)
        if isinstance(self.element, (TFun, TProd)):
            inner = f"({inner})"
        return f"{inner} list"


@dataclass(frozen=True)
class TFun(Type):
    arg: Type
    result: Type

    def __str__(self) -> str:
        left = str(self.arg)
        if isinstance(self.arg, TFun):
            left = f"({left})"
        return f"{left} -> {self.result}"


@dataclass(frozen=True)
class TProd(Type):
    """A pair type ``τ1 * τ2`` (the paper's "tuples, records" — §7 notes
    the approach extends to them; n-tuples are right-nested pairs)."""

    fst: Type
    snd: Type

    def __str__(self) -> str:
        def side(ty: Type) -> str:
            if isinstance(ty, (TFun, TProd)):
                return f"({ty})"
            return str(ty)

        return f"{side(self.fst)} * {side(self.snd)}"


INT = TInt()
BOOL = TBool()


@dataclass(frozen=True)
class TypeScheme:
    """``∀ vars. body`` — the generalization of a monotype."""

    vars: tuple[TVar, ...]
    body: Type

    def __str__(self) -> str:
        if not self.vars:
            return str(self.body)
        quantified = " ".join(str(v) for v in self.vars)
        return f"forall {quantified}. {self.body}"

    @staticmethod
    def mono(ty: Type) -> "TypeScheme":
        return TypeScheme((), ty)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def spines(ty: Type) -> int:
    """Definition 1's spine count of a type.

    Type variables count as zero spines: by polymorphic invariance the
    analysis may treat an unconstrained element type as the simplest
    instance (``int``).
    """
    count = 0
    while isinstance(ty, TList):
        count += 1
        ty = ty.element
    return count


def free_type_vars(ty: Type) -> frozenset[TVar]:
    if isinstance(ty, TVar):
        return frozenset({ty})
    if isinstance(ty, TList):
        return free_type_vars(ty.element)
    if isinstance(ty, TFun):
        return free_type_vars(ty.arg) | free_type_vars(ty.result)
    if isinstance(ty, TProd):
        return free_type_vars(ty.fst) | free_type_vars(ty.snd)
    return frozenset()


def scheme_free_type_vars(scheme: TypeScheme) -> frozenset[TVar]:
    return free_type_vars(scheme.body) - frozenset(scheme.vars)


def apply_subst(ty: Type, subst: dict[TVar, Type]) -> Type:
    """Apply a substitution, following chains (``t1 ↦ t2 ↦ int``)."""
    if isinstance(ty, TVar):
        replacement = subst.get(ty)
        if replacement is None:
            return ty
        return apply_subst(replacement, subst)
    if isinstance(ty, TList):
        element = apply_subst(ty.element, subst)
        return ty if element is ty.element else TList(element)
    if isinstance(ty, TFun):
        arg = apply_subst(ty.arg, subst)
        result = apply_subst(ty.result, subst)
        if arg is ty.arg and result is ty.result:
            return ty
        return TFun(arg, result)
    if isinstance(ty, TProd):
        fst = apply_subst(ty.fst, subst)
        snd = apply_subst(ty.snd, subst)
        if fst is ty.fst and snd is ty.snd:
            return ty
        return TProd(fst, snd)
    return ty


def fun_args(ty: Type) -> tuple[list[Type], Type]:
    """Decompose ``τ1 → ... → τn → ρ`` into ``([τ1..τn], ρ)`` where ρ is not
    a function type."""
    args: list[Type] = []
    while isinstance(ty, TFun):
        args.append(ty.arg)
        ty = ty.result
    return args, ty


def arity(ty: Type) -> int:
    """Number of arguments a value of this type can take before returning a
    non-function value (the paper's ``m`` in Definition 2)."""
    return len(fun_args(ty)[0])


def contains_function(ty: Type) -> bool:
    """True if a function type occurs anywhere inside ``ty``."""
    if isinstance(ty, TFun):
        return True
    if isinstance(ty, TList):
        return contains_function(ty.element)
    if isinstance(ty, TProd):
        return contains_function(ty.fst) or contains_function(ty.snd)
    return False


def is_list_type(ty: Type) -> bool:
    return isinstance(ty, TList)


def list_of(ty: Type, depth: int = 1) -> Type:
    """``ty list list ...`` with ``depth`` list constructors."""
    for _ in range(depth):
        ty = TList(ty)
    return ty


def type_fingerprint(ty: Type) -> str:
    """A stable, canonical token string for ``ty``.

    Type variables are renumbered by first occurrence, so two types that
    differ only in the identity of their inference variables fingerprint
    identically — the property the query-engine cache keys need (a pin of
    ``t17 list`` and of ``t99 list`` is the same pin).
    """
    names: dict[TVar, int] = {}

    def go(t: Type) -> str:
        if isinstance(t, TInt):
            return "int"
        if isinstance(t, TBool):
            return "bool"
        if isinstance(t, TVar):
            if t not in names:
                names[t] = len(names) + 1
            return f"a{names[t]}"
        if isinstance(t, TList):
            return f"(list {go(t.element)})"
        if isinstance(t, TFun):
            return f"(fun {go(t.arg)} {go(t.result)})"
        if isinstance(t, TProd):
            return f"(prod {go(t.fst)} {go(t.snd)})"
        raise TypeError(f"cannot fingerprint {type(t).__name__}")

    return go(ty)


def pins_fingerprint(pins: "dict[str, Type] | None") -> str:
    """A stable key for a set of monotype pins (empty string for none)."""
    if not pins:
        return ""
    return ";".join(
        f"{name}:{type_fingerprint(pins[name])}" for name in sorted(pins)
    )


def max_spines_in(ty: Type) -> int:
    """The deepest spine count of any list type occurring inside ``ty``.

    Used to compute the program constant ``d`` that bounds the `B_e` chain.
    """
    if isinstance(ty, TList):
        return max(spines(ty), max_spines_in(ty.element))
    if isinstance(ty, TFun):
        return max(max_spines_in(ty.arg), max_spines_in(ty.result))
    if isinstance(ty, TProd):
        return max(max_spines_in(ty.fst), max_spines_in(ty.snd))
    return 0

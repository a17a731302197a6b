"""Primitive execution, shared by the standard interpreter, the dual
(exact-semantics) interpreter, and the abstract machine.

One function, one source of truth for the dynamic semantics of every
primitive — including ``cons``'s allocation-site bookkeeping and ``dcons``'s
in-place reuse.
"""

from __future__ import annotations

from repro.lang.ast import Prim
from repro.lang.errors import EvalError, SourceSpan
from repro.semantics.heap import Heap
from repro.semantics.values import (
    FALSE,
    TRUE,
    Value,
    VCons,
    VInt,
    VNil,
    VTuple,
    expect_int,
)

_ARITH = {"+", "-", "*", "/"}
_COMPARE = {"==", "<>", "<", "<=", ">", ">="}


def exec_prim(
    heap: Heap,
    prim: Prim,
    args: tuple[Value, ...],
    span: SourceSpan | None = None,
) -> Value:
    """Execute a saturated primitive application."""
    name = prim.name

    if name in _ARITH or name in _COMPARE:
        left = expect_int(args[0], name)
        right = expect_int(args[1], name)
        if name == "+":
            return VInt(left + right)
        if name == "-":
            return VInt(left - right)
        if name == "*":
            return VInt(left * right)
        if name == "/":
            if right == 0:
                raise EvalError("division by zero", span)
            return VInt(left // right)
        if name == "==":
            return TRUE if left == right else FALSE
        if name == "<>":
            return TRUE if left != right else FALSE
        if name == "<":
            return TRUE if left < right else FALSE
        if name == "<=":
            return TRUE if left <= right else FALSE
        if name == ">":
            return TRUE if left > right else FALSE
        return TRUE if left >= right else FALSE

    if name == "cons":
        return VCons(heap.allocate(args[0], args[1], site=prim))
    if name == "car":
        if isinstance(args[0], VNil):
            raise EvalError("car of nil", span)
        if not isinstance(args[0], VCons):
            raise EvalError(f"car of non-list {args[0]}", span)
        return heap.car_of(args[0])
    if name == "cdr":
        if isinstance(args[0], VNil):
            raise EvalError("cdr of nil", span)
        if not isinstance(args[0], VCons):
            raise EvalError(f"cdr of non-list {args[0]}", span)
        return heap.cdr_of(args[0])
    if name == "null":
        if isinstance(args[0], (VNil, VCons)):
            return TRUE if isinstance(args[0], VNil) else FALSE
        raise EvalError(f"null of non-list {args[0]}", span)
    if name == "mkpair":
        return VTuple(args[0], args[1])
    if name == "fst":
        if not isinstance(args[0], VTuple):
            raise EvalError(f"fst of non-tuple {args[0]}", span)
        return args[0].fst
    if name == "snd":
        if not isinstance(args[0], VTuple):
            raise EvalError(f"snd of non-tuple {args[0]}", span)
        return args[0].snd
    if name == "dcons":
        donor, head, tail = args
        if isinstance(donor, VCons):
            return VCons(heap.reuse(donor.cell, head, tail))
        # Donor exhausted (nil): fresh cell, as the transformed programs do
        # when they run out of reusable cells.
        heap.metrics.dcons_fallback += 1
        return VCons(heap.allocate(head, tail, site=prim))

    raise EvalError(f"unknown primitive {name!r}", span)

"""Name resolution: distinguish primitive constants from identifiers.

The parser produces :class:`~repro.lang.ast.Var` for every name.  This pass
rewrites occurrences of primitive names (``cons``, ``car``, ``+``, ...) that
are *not* shadowed by a lambda parameter or a letrec binding into
:class:`~repro.lang.ast.Prim` constants, matching the paper's treatment of
primitives as constants of the language.

Non-primitive free identifiers are left alone — they may be given meaning by
an environment supplied at type-inference or evaluation time.
"""

from __future__ import annotations

from repro.lang.ast import PRIMITIVES, Expr, Lambda, Letrec, Prim, Var


def resolve_expr(expr: Expr, bound: frozenset[str] = frozenset()) -> Expr:
    """Return ``expr`` with unshadowed primitive names turned into Prim."""
    if isinstance(expr, Var):
        if expr.name in PRIMITIVES and expr.name not in bound:
            return Prim(span=expr.span, name=expr.name)
        return expr
    if isinstance(expr, Lambda):
        body = resolve_expr(expr.body, bound | {expr.param})
        if body is expr.body:
            return expr
        return expr.with_children((body,))
    if isinstance(expr, Letrec):
        inner = bound | set(expr.binding_names())
        children = expr.children()
        new_children = tuple(resolve_expr(child, inner) for child in children)
        if all(new is old for new, old in zip(new_children, children)):
            return expr
        return expr.with_children(new_children)
    children = expr.children()
    if not children:
        return expr
    new_children = tuple(resolve_expr(child, bound) for child in children)
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.with_children(new_children)


"""The standard semantics: a strict, environment-based interpreter with an
instrumented heap.

This is the "certain implementation that uses a stack and a heap and uses
aliasing, rather than copying, of aggregate objects" that §3.3 says the
escape analysis targets.  Lists are aliased cons cells; ``dcons`` mutates
them; optimizer annotations direct individual ``cons`` sites into stack or
block regions; and a mark–sweep collector can run at allocation safepoints.

The interpreter compiles each node into a Python closure (see
:class:`Interpreter`); the abstract machine (:mod:`repro.machine`) stays the
independent reference that M1 checks it against.

Region protocol (used by the optimizers in :mod:`repro.opt`):

* an expression annotated ``annotations["region"] = {"kind": "stack"|
  "block", "label": ...}`` opens a region before it evaluates and closes it
  (freeing all cells placed there) right after its value is computed —
  with an escape check that raises
  :class:`~repro.lang.errors.UseAfterFreeError` if the value still needs a
  freed cell;
* a ``cons`` site annotated ``annotations["alloc"] = "region"`` allocates
  into the innermost open region.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable

from repro.lang.ast import (
    App,
    BoolLit,
    Expr,
    If,
    IntLit,
    Lambda,
    Letrec,
    NilLit,
    Prim,
    Program,
    Var,
)
from repro.lang.errors import EvalError, SourceSpan
from repro.lang.parser import parse_expr
from repro.obs import tracer as obs
from repro.robust import faults
from repro.semantics.gc import make_collector
from repro.semantics.heap import AllocKind, Heap, StorageSanitizer
from repro.semantics.metrics import StorageMetrics
from repro.semantics.prims import exec_prim
from repro.semantics.values import (
    FALSE,
    NIL,
    TRUE,
    Env,
    Value,
    VBool,
    VClosure,
    VCons,
    VInt,
    VNil,
    VPrim,
    VTuple,
)

#: A compiled node: evaluates it in an environment.
Code = Callable[[Env], Value]


class Interpreter:
    """Evaluates nml programs over the instrumented heap.

    ``auto_gc`` runs the collector at application safepoints once
    ``gc_threshold`` heap cells have been allocated since the last
    collection; leave it off for precise allocation-count experiments and
    on for GC-work experiments.

    Evaluation compiles each node, the first time it is met, into one
    Python closure with its children's closures, constants, span and
    region spec bound; every later visit calls that closure.  The compiled
    code lives only while an evaluation (``run``, ``eval_in``, ``eval`` or
    ``apply``) is under way, so it never outlives a node's annotations.
    """

    def __init__(
        self,
        gc_threshold: int = 10_000,
        auto_gc: bool = False,
        recursion_limit: int = 100_000,
        sanitize: bool = False,
        collector: str = "mark-sweep",
        liveness: "dict[str, int | None] | None" = None,
    ):
        self.metrics = StorageMetrics()
        #: opt-in storage-safety sanitizer: detects use-after-reuse through
        #: stale dcons aliases, reads of region-reclaimed cells, and
        #: reclamation of cells still reachable from live roots
        self.sanitizer = StorageSanitizer() if sanitize else None
        self.heap = Heap(self.metrics, sanitizer=self.sanitizer)
        self.gc = make_collector(
            collector, self.heap, threshold=gc_threshold, budgets=liveness
        )
        self.auto_gc = auto_gc
        self.recursion_limit = recursion_limit
        # GC roots: the envs of all active eval frames plus the temporary
        # values Python-stack frames are holding across nested evaluation.
        self._env_stack: list[Env] = []
        self._temp_roots: list[Value] = []
        #: Compiled code by node identity, ``id(node) -> (node, code)``:
        #: holding the node keeps its id from being reused while the entry
        #: lives.  Emptied when an evaluation returns, which also breaks
        #: the cycle from the closures back to this interpreter.
        self._code: dict[int, tuple[Expr, Code]] = {}

    # -- entry points -----------------------------------------------------

    def run(self, program: Program) -> Value:
        """Evaluate the whole program (its top-level letrec)."""
        with obs.span("run"):
            return self._with_recursion_limit(
                lambda: self.eval(program.letrec, Env())
            )

    def eval_in(self, program: Program, expr: "Expr | str") -> Value:
        """Evaluate ``expr`` with the program's top-level bindings in scope."""
        body = parse_expr(expr) if isinstance(expr, str) else expr
        letrec = Letrec(bindings=program.bindings, body=body)
        return self._with_recursion_limit(lambda: self.eval(letrec, Env()))

    def eval(self, expr: Expr, env: Env) -> Value:
        try:
            return self._code_for(expr)(env)
        finally:
            self._code.clear()

    def apply(self, fn_value: Value, arg: Value, node: App | None = None) -> Value:
        try:
            return self._apply(fn_value, arg, node.span if node else None)
        finally:
            self._code.clear()

    def _with_recursion_limit(self, thunk):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous, self.recursion_limit))
        try:
            return thunk()
        finally:
            sys.setrecursionlimit(previous)

    # -- roots ----------------------------------------------------------------

    def roots(self) -> Iterable["Value | Env"]:
        yield from self._env_stack
        yield from self._temp_roots

    # -- application ------------------------------------------------------------

    def _apply(self, fn_value: Value, arg: Value, span: SourceSpan | None) -> Value:
        self.metrics.applications += 1
        if isinstance(fn_value, VClosure):
            lam = fn_value.lam
            call_env = Env(fn_value.env, {lam.param: arg})
            self._env_stack.append(call_env)
            try:
                return self._code_for(lam.body)(call_env)
            finally:
                self._env_stack.pop()
        if isinstance(fn_value, VPrim):
            prim = fn_value.prim
            args = fn_value.args + (arg,)
            if len(args) < prim.arity:
                return VPrim(prim, args)
            return exec_prim(self.heap, prim, args, span)
        raise EvalError(f"cannot apply non-function {fn_value}", span)

    def _exec_prim(self, prim: Prim, args: tuple[Value, ...], node: App | None) -> Value:
        return exec_prim(self.heap, prim, args, node.span if node else None)

    # -- the compiler -------------------------------------------------------------

    def _code_for(self, expr: Expr) -> Code:
        entry = self._code.get(id(expr))
        if entry is not None:
            return entry[1]
        return self._compile(expr)

    def _compile(self, root: Expr) -> Code:
        """Compile ``root`` and every node under it not yet compiled,
        children before parents, with an explicit stack: compiling needs no
        Python recursion.  A lambda's body waits for its first application."""
        code = self._code
        pending: list[tuple[Expr, bool]] = [(root, False)]
        while pending:
            node, children_done = pending.pop()
            if id(node) in code:
                continue
            if children_done:
                code[id(node)] = (node, self._build(node))
                continue
            pending.append((node, True))
            pending.extend(
                (child, False)
                for child in _evaluated_children(node)
                if id(child) not in code
            )
        return code[id(root)][1]

    def _build(self, expr: Expr) -> Code:
        """The closure for ``expr``; its children's code is already built."""
        core = self._build_core(expr)
        region_spec = expr.annotations.get("region")
        if region_spec is None:
            return core
        kind = AllocKind.STACK if region_spec.get("kind") == "stack" else AllocKind.BLOCK
        label = region_spec.get("label", "")
        heap, sanitizer, roots = self.heap, self.sanitizer, self.roots

        # ``core`` counts the node's eval step after the region opens;
        # opening a region reads no counter, so the count is the same.
        def region_scope(env: Env) -> Value:
            region = heap.open_region(kind, label=label)
            try:
                result = core(env)
            except BaseException:
                heap.close_region(region)
                raise
            live_roots = [result, *roots()] if sanitizer is not None else None
            heap.close_region(region, escaping=result, live_roots=live_roots)
            return result

        return region_scope

    def _build_core(self, expr: Expr) -> Code:
        metrics = self.metrics
        code = self._code

        if isinstance(expr, (IntLit, BoolLit, NilLit, Prim)):
            value = _constant(expr)

            def constant(env: Env) -> Value:
                metrics.eval_steps += 1
                return value

            return constant

        if isinstance(expr, Var):
            name = expr.name

            def variable(env: Env) -> Value:
                metrics.eval_steps += 1
                scope: Env | None = env
                while scope is not None:
                    frame = scope.frame
                    if name in frame:
                        return frame[name]
                    scope = scope.parent
                raise EvalError(f"unbound identifier {name!r} at run time")

            return variable

        if isinstance(expr, Lambda):
            lam = expr

            def closure(env: Env) -> Value:
                metrics.eval_steps += 1
                return VClosure(lam, env)

            return closure

        if isinstance(expr, If):
            cond_code = code[id(expr.cond)][1]
            then_code = code[id(expr.then)][1]
            else_code = code[id(expr.otherwise)][1]
            cond_span = expr.cond.span

            def branch(env: Env) -> Value:
                metrics.eval_steps += 1
                cond = cond_code(env)
                if cond is TRUE:
                    return then_code(env)
                if cond is FALSE:
                    return else_code(env)
                if not isinstance(cond, VBool):
                    raise EvalError(f"if condition is not a bool: {cond}", cond_span)
                return then_code(env) if cond.value else else_code(env)

            return branch

        env_stack = self._env_stack
        push_env, pop_env = env_stack.append, env_stack.pop

        if isinstance(expr, Letrec):
            # A lambda binding becomes a closure without being evaluated (no
            # eval step); the other bindings are evaluated in order.
            plan = [
                (b.name, b.expr, None)
                if isinstance(b.expr, Lambda)
                else (b.name, None, code[id(b.expr)][1])
                for b in expr.bindings
            ]
            body_code = code[id(expr.body)][1]

            def letrec(env: Env) -> Value:
                metrics.eval_steps += 1
                # The frame dict is shared (not copied) so closures created
                # while filling it see every binding — the recursive knot.
                frame: dict[str, Value] = {}
                inner = Env(env, frame)
                push_env(inner)
                try:
                    for name, lam, bound_code in plan:
                        if lam is not None:
                            frame[name] = VClosure(lam, inner, name)
                        else:
                            frame[name] = bound_code(inner)
                    return body_code(inner)
                finally:
                    pop_env()

            return letrec

        if isinstance(expr, App):
            fn_code = code[id(expr.fn)][1]
            arg_code = code[id(expr.arg)][1]
            span = expr.span
            apply = self._apply
            temp_roots = self._temp_roots
            push_temp, pop_temp = temp_roots.append, temp_roots.pop
            gc, auto_gc, roots = self.gc, self.auto_gc, self.roots
            take_forced_gc = faults.take_forced_gc

            def application(env: Env) -> Value:
                metrics.eval_steps += 1
                # Every application is a safepoint, taken before its
                # function is evaluated.  An injected adversarial GC comes
                # first and collects with the true root set, so a sound
                # engine survives it and an unsound one trips a sanitizer;
                # then the allocation-budget trigger.  ``collect`` is
                # looked up on the collector each time one runs.
                if take_forced_gc():
                    gc.collect(roots())
                if auto_gc and metrics.heap_allocs >= gc.due_at:
                    gc.collect(roots())
                push_env(env)
                try:
                    fn_value = fn_code(env)
                    push_temp(fn_value)
                    try:
                        arg_value = arg_code(env)
                        push_temp(arg_value)
                        try:
                            return apply(fn_value, arg_value, span)
                        finally:
                            pop_temp()
                    finally:
                        pop_temp()
                finally:
                    pop_env()

            return application

        type_name, span = type(expr).__name__, expr.span

        def unknown(env: Env) -> Value:
            metrics.eval_steps += 1
            raise EvalError(f"cannot evaluate {type_name}", span)

        return unknown

    # -- Python interop -----------------------------------------------------------

    def from_python(self, obj) -> Value:
        """Build an nml value from nested Python ints/bools/lists.

        List cells are ordinary heap allocations (they show up in the
        metrics; snapshot before/after if you need to exclude them).
        """
        if isinstance(obj, bool):
            return TRUE if obj else FALSE
        if isinstance(obj, int):
            return VInt(obj)
        if isinstance(obj, tuple):
            if len(obj) < 2:
                raise EvalError("tuples need at least two components")
            result = self.from_python(obj[-1])
            for item in reversed(obj[:-1]):
                result = VTuple(self.from_python(item), result)
            return result
        if isinstance(obj, list):
            result: Value = NIL
            for item in reversed(obj):
                result = VCons(self.heap.allocate(self.from_python(item), result))
            return result
        raise EvalError(f"cannot convert {type(obj).__name__} to an nml value")

    def to_python(self, value: Value):
        """Convert ints, bools and (nested) lists back to Python."""
        if isinstance(value, VInt):
            return value.value
        if isinstance(value, VBool):
            return value.value
        if isinstance(value, VNil):
            return []
        if isinstance(value, VTuple):
            return (self.to_python(value.fst), self.to_python(value.snd))
        if isinstance(value, VCons):
            items = []
            current: Value = value
            while isinstance(current, VCons):
                items.append(self.to_python(self.heap.read_car(current.cell)))
                current = self.heap.read_cdr(current.cell)
            if not isinstance(current, VNil):
                raise EvalError(f"improper list tail {current}")
            return items
        raise EvalError(f"cannot convert {value} to Python")


def _constant(expr: "IntLit | BoolLit | NilLit | Prim") -> Value:
    if isinstance(expr, IntLit):
        return VInt(expr.value)
    if isinstance(expr, BoolLit):
        return TRUE if expr.value else FALSE
    if isinstance(expr, NilLit):
        return NIL
    return VPrim(expr)


def _evaluated_children(expr: Expr) -> tuple[Expr, ...]:
    """The subexpressions ``expr``'s code calls directly: not a lambda's
    body, nor the lambdas a letrec binds."""
    if isinstance(expr, App):
        return (expr.fn, expr.arg)
    if isinstance(expr, If):
        return (expr.cond, expr.then, expr.otherwise)
    if isinstance(expr, Letrec):
        bound = tuple(b.expr for b in expr.bindings if not isinstance(b.expr, Lambda))
        return bound + (expr.body,)
    return ()


def run_program(program: Program, **kwargs) -> tuple[object, StorageMetrics]:
    """Convenience: run a program, return (python result, metrics)."""
    interp = Interpreter(**kwargs)
    value = interp.run(program)
    return interp.to_python(value), interp.metrics

"""The standard semantics: a strict, environment-based interpreter with an
instrumented heap.

This is the "certain implementation that uses a stack and a heap and uses
aliasing, rather than copying, of aggregate objects" that §3.3 says the
escape analysis targets.  Lists are aliased cons cells; ``dcons`` mutates
them; optimizer annotations direct individual ``cons`` sites into stack or
block regions; and a mark–sweep collector can run at allocation safepoints.

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
from typing import Iterable

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
from repro.lang.errors import EvalError
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
    expect_int,
)

class Interpreter:
    """Evaluates nml programs over the instrumented heap.

    ``auto_gc`` runs the collector at application safepoints once the live
    heap exceeds ``gc_threshold`` cells; leave it off for precise
    allocation-count experiments and on for GC-work experiments.
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

    def _with_recursion_limit(self, thunk):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous, self.recursion_limit))
        try:
            return thunk()
        finally:
            sys.setrecursionlimit(previous)

    # -- roots / safepoints -------------------------------------------------

    def roots(self) -> Iterable["Value | Env"]:
        yield from self._env_stack
        yield from self._temp_roots

    def _safepoint(self) -> None:
        if faults.take_forced_gc():
            # Injected adversarial GC: collect with the true root set, so a
            # sound engine survives it and an unsound one trips a sanitizer.
            self.gc.collect(self.roots())
        if self.auto_gc:
            self.gc.maybe_collect(self.roots())

    # -- the evaluator ---------------------------------------------------------

    def eval(self, expr: Expr, env: Env) -> Value:
        self.metrics.eval_steps += 1

        region_spec = expr.annotations.get("region")
        if region_spec is not None:
            kind = AllocKind.STACK if region_spec.get("kind") == "stack" else AllocKind.BLOCK
            region = self.heap.open_region(kind, label=region_spec.get("label", ""))
            try:
                result = self._eval_core(expr, env)
            except BaseException:
                self.heap.close_region(region)
                raise
            live_roots = (
                [result, *self.roots()] if self.sanitizer is not None else None
            )
            self.heap.close_region(region, escaping=result, live_roots=live_roots)
            return result
        return self._eval_core(expr, env)

    def _eval_core(self, expr: Expr, env: Env) -> Value:
        if isinstance(expr, IntLit):
            return VInt(expr.value)
        if isinstance(expr, BoolLit):
            return TRUE if expr.value else FALSE
        if isinstance(expr, NilLit):
            return NIL
        if isinstance(expr, Prim):
            return VPrim(expr)
        if isinstance(expr, Var):
            return env.lookup(expr.name)
        if isinstance(expr, Lambda):
            return VClosure(expr, env)
        if isinstance(expr, If):
            cond = self.eval(expr.cond, env)
            if not isinstance(cond, VBool):
                raise EvalError(f"if condition is not a bool: {cond}", expr.cond.span)
            branch = expr.then if cond.value else expr.otherwise
            return self.eval(branch, env)
        if isinstance(expr, Letrec):
            return self._eval_letrec(expr, env)
        if isinstance(expr, App):
            return self._eval_app(expr, env)
        raise EvalError(f"cannot evaluate {type(expr).__name__}", expr.span)

    def _eval_app(self, expr: App, env: Env) -> Value:
        self._safepoint()
        self._env_stack.append(env)
        try:
            fn_value = self.eval(expr.fn, env)
            self._temp_roots.append(fn_value)
            try:
                arg_value = self.eval(expr.arg, env)
                self._temp_roots.append(arg_value)
                try:
                    return self.apply(fn_value, arg_value, expr)
                finally:
                    self._temp_roots.pop()
            finally:
                self._temp_roots.pop()
        finally:
            self._env_stack.pop()

    def _eval_letrec(self, expr: Letrec, env: Env) -> Value:
        # The frame dict is shared (not copied) so closures created while
        # filling it see every binding — that is the recursive knot.
        frame: dict[str, Value] = {}
        inner = Env(env, frame)
        self._env_stack.append(inner)
        try:
            for binding in expr.bindings:
                if isinstance(binding.expr, Lambda):
                    frame[binding.name] = VClosure(binding.expr, inner, binding.name)
                else:
                    frame[binding.name] = self.eval(binding.expr, inner)
            return self.eval(expr.body, inner)
        finally:
            self._env_stack.pop()

    # -- application ----------------------------------------------------------

    def apply(self, fn_value: Value, arg: Value, node: App | None = None) -> Value:
        self.metrics.applications += 1
        if isinstance(fn_value, VClosure):
            call_env = fn_value.env.bind(fn_value.lam.param, arg)
            self._env_stack.append(call_env)
            try:
                return self.eval(fn_value.lam.body, call_env)
            finally:
                self._env_stack.pop()
        if isinstance(fn_value, VPrim):
            args = fn_value.args + (arg,)
            if len(args) < fn_value.prim.arity:
                return VPrim(fn_value.prim, args)
            return self._exec_prim(fn_value.prim, args, node)
        raise EvalError(
            f"cannot apply non-function {fn_value}", node.span if node else None
        )

    def _exec_prim(self, prim: Prim, args: tuple[Value, ...], node: App | None) -> Value:
        return exec_prim(self.heap, prim, args, node.span if node else None)

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


def run_program(program: Program, **kwargs) -> tuple[object, StorageMetrics]:
    """Convenience: run a program, return (python result, metrics)."""
    interp = Interpreter(**kwargs)
    value = interp.run(program)
    return interp.to_python(value), interp.metrics

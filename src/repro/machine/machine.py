"""The abstract machine: operand stack, frame stack, the shared heap.

This is the operational layer §3.3 alludes to ("we can give such a
definition"): a stack machine over the *same* instrumented heap, regions,
and primitive semantics as the standard interpreter, so the two can be
checked against each other — results, allocation counts, reuse counts, and
region reclamation all agree instruction-for-step (validated in
``tests/test_machine.py``).

GC is naturally precise here: the roots are exactly the operand stack plus
the environments of the live frames.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.lang.ast import Expr, Letrec, Program
from repro.lang.errors import EvalError
from repro.lang.parser import parse_expr
from repro.machine.compiler import compile_expr, compile_program
from repro.machine.instructions import (
    Apply,
    Branch,
    Code,
    EnvRestore,
    LetrecEnter,
    Load,
    MakeClosure,
    PushBool,
    PushInt,
    PushNil,
    PushPrim,
    RegionClose,
    RegionOpen,
    Store,
)
from repro.robust import faults
from repro.semantics.gc import make_collector
from repro.semantics.heap import AllocKind, Heap, Region, StorageSanitizer
from repro.semantics.metrics import StorageMetrics
from repro.semantics.prims import exec_prim
from repro.semantics.values import FALSE, NIL, TRUE, Env, Value, VBool, VInt, VPrim


@dataclass(frozen=True, slots=True)
class MClosure(Value):
    """A machine closure: compiled body + captured environment."""

    param: str
    body: Code
    env: Env
    name: str = ""

    def __str__(self) -> str:
        label = self.name or "lambda"
        return f"#<mclosure {label}({self.param})>"


@dataclass(eq=False)
class Frame:
    code: Code
    pc: int = 0
    env: Env = field(default_factory=Env)


class Machine:
    """Executes compiled nml code over the instrumented heap."""

    def __init__(
        self,
        gc_threshold: int = 10_000,
        auto_gc: bool = False,
        sanitize: bool = False,
        collector: str = "mark-sweep",
        liveness: "dict[str, int | None] | None" = None,
    ):
        self.metrics = StorageMetrics()
        self.sanitizer = StorageSanitizer() if sanitize else None
        self.heap = Heap(self.metrics, sanitizer=self.sanitizer)
        self.gc = make_collector(
            collector, self.heap, threshold=gc_threshold, budgets=liveness
        )
        self.auto_gc = auto_gc
        self.stack: list[Value] = []
        self.frames: list[Frame] = []
        #: regions opened by RegionOpen, matched by RegionClose
        self._open_regions: list[Region] = []

    # -- entry points ------------------------------------------------------

    def run(self, program: Program) -> Value:
        return self.execute(compile_program(program))

    def eval_in(self, program: Program, expr: "Expr | str") -> Value:
        body = parse_expr(expr) if isinstance(expr, str) else expr
        letrec = Letrec(bindings=program.bindings, body=body)
        return self.execute(compile_expr(letrec))

    # -- the instruction loop ------------------------------------------------

    def execute(self, code: Code, env: Env | None = None) -> Value:
        self.stack = []
        self.frames = [Frame(code=code, env=env or Env())]

        while self.frames:
            frame = self.frames[-1]
            if frame.pc >= len(frame.code):
                self.frames.pop()
                continue
            instr = frame.code[frame.pc]
            frame.pc += 1
            self.metrics.eval_steps += 1
            self._step(instr, frame)

        if len(self.stack) != 1:
            raise EvalError(f"machine halted with {len(self.stack)} values on the stack")
        return self.stack.pop()

    def _roots(self):
        yield from self.stack
        for frame in self.frames:
            yield frame.env

    def _step(self, instr, frame: Frame) -> None:
        if isinstance(instr, PushInt):
            self.stack.append(VInt(instr.value))
            return
        if isinstance(instr, PushBool):
            self.stack.append(TRUE if instr.value else FALSE)
            return
        if isinstance(instr, PushNil):
            self.stack.append(NIL)
            return
        if isinstance(instr, PushPrim):
            self.stack.append(VPrim(instr.prim))
            return
        if isinstance(instr, Load):
            self.stack.append(frame.env.lookup(instr.name))
            return
        if isinstance(instr, MakeClosure):
            self.stack.append(
                MClosure(param=instr.param, body=instr.body, env=frame.env, name=instr.name)
            )
            return
        if isinstance(instr, Apply):
            if faults.take_forced_gc():
                self.gc.collect(self._roots())
            if self.auto_gc:
                self.gc.maybe_collect(self._roots())
            arg = self.stack.pop()
            fn = self.stack.pop()
            self._apply(fn, arg)
            return
        if isinstance(instr, Branch):
            cond = self.stack.pop()
            if not isinstance(cond, VBool):
                raise EvalError(f"branch on a non-bool: {cond}")
            chosen = instr.then_code if cond.value else instr.else_code
            self.frames.append(Frame(code=chosen, env=frame.env))
            return
        if isinstance(instr, LetrecEnter):
            frame.env = Env(frame.env, {})
            return
        if isinstance(instr, Store):
            frame.env.frame[instr.name] = self.stack.pop()
            return
        if isinstance(instr, EnvRestore):
            assert frame.env.parent is not None
            frame.env = frame.env.parent
            return
        if isinstance(instr, RegionOpen):
            kind = AllocKind.STACK if instr.kind == "stack" else AllocKind.BLOCK
            self._open_regions.append(self.heap.open_region(kind, label=instr.label))
            return
        if isinstance(instr, RegionClose):
            region = self._open_regions.pop()
            live_roots = list(self._roots()) if self.sanitizer is not None else None
            self.heap.close_region(
                region, escaping=self.stack[-1], live_roots=live_roots
            )
            return
        raise EvalError(f"unknown instruction {instr!r}")

    def _apply(self, fn: Value, arg: Value) -> None:
        self.metrics.applications += 1
        if isinstance(fn, MClosure):
            call_env = fn.env.bind(fn.param, arg)
            self.frames.append(Frame(code=fn.body, env=call_env))
            return
        if isinstance(fn, VPrim):
            args = fn.args + (arg,)
            if len(args) < fn.prim.arity:
                self.stack.append(VPrim(fn.prim, args))
                return
            self.stack.append(exec_prim(self.heap, fn.prim, args))
            return
        raise EvalError(f"cannot apply non-function {fn}")

    # -- interop ------------------------------------------------------------

    def to_python(self, value: Value):
        from repro.semantics.interp import Interpreter

        adapter = Interpreter.__new__(Interpreter)
        adapter.heap = self.heap
        return adapter.to_python(value)

    def from_python(self, obj) -> Value:
        from repro.semantics.interp import Interpreter

        adapter = Interpreter.__new__(Interpreter)
        adapter.heap = self.heap
        return adapter.from_python(obj)


def run_compiled(program: Program, **kwargs) -> tuple[object, StorageMetrics]:
    """Convenience mirroring :func:`repro.semantics.interp.run_program`."""
    machine = Machine(**kwargs)
    value = machine.run(program)
    return machine.to_python(value), machine.metrics

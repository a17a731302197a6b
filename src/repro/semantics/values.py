"""Runtime values of the standard semantics.

Lists are *not* Python lists: a non-empty list is a reference to a cons cell
in the instrumented heap (:mod:`repro.semantics.heap`), so aliasing, sharing
and destructive reuse behave exactly as in the stack-and-heap implementation
the paper's analysis targets (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.lang.ast import Expr, Lambda, Prim
from repro.lang.errors import EvalError

if TYPE_CHECKING:  # pragma: no cover
    from repro.semantics.heap import Cell


class Value:
    """Base class of runtime values."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class VInt(Value):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class VBool(Value):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, slots=True)
class VNil(Value):
    def __str__(self) -> str:
        return "nil"


NIL = VNil()
TRUE = VBool(True)
FALSE = VBool(False)


@dataclass(frozen=True, slots=True)
class VCons(Value):
    """A non-empty list: a pointer to a heap cell.

    ``version`` snapshots the cell's reuse generation at the moment this
    reference was created.  ``dcons`` bumps the cell's generation, so a
    read through a reference older than the cell is a *use-after-reuse* —
    the storage-safety sanitizer's tripwire for an unsound DCONS.
    """

    cell: "Cell"
    version: int = -1

    def __post_init__(self) -> None:
        if self.version < 0:
            object.__setattr__(self, "version", self.cell.version)

    def __str__(self) -> str:
        return f"#<cons {self.cell.id}>"


@dataclass(frozen=True, slots=True)
class VTuple(Value):
    """A pair (the tuple extension of §7).

    Tuples are immutable aggregates with no spine structure — Definition 1
    defines spines via car/cdr only — so the analysis treats them as
    indivisible objects whose *contents* still flow through fst/snd.
    """

    fst: Value
    snd: Value

    def __str__(self) -> str:
        return f"({self.fst}, {self.snd})"


class Env:
    """A persistent environment: an immutable chain of frames.

    ``bind`` is O(1); lookup walks outward.  Frames are also the GC roots —
    :meth:`values` yields every bound value reachable from this environment.
    """

    __slots__ = ("parent", "frame")

    def __init__(self, parent: "Env | None" = None, frame: dict[str, Value] | None = None):
        self.parent = parent
        # `frame if frame is not None` (not `frame or {}`): letrec shares an
        # initially-empty frame dict and fills it afterwards.
        self.frame = frame if frame is not None else {}

    def bind(self, name: str, value: Value) -> "Env":
        return Env(self, {name: value})

    def lookup(self, name: str) -> Value:
        env: Env | None = self
        while env is not None:
            if name in env.frame:
                return env.frame[name]
            env = env.parent
        raise EvalError(f"unbound identifier {name!r} at run time")

    def values(self) -> Iterator[Value]:
        env: Env | None = self
        while env is not None:
            yield from env.frame.values()
            env = env.parent


@dataclass(frozen=True, slots=True)
class VClosure(Value):
    """A function value: a lambda plus its captured environment."""

    lam: Lambda
    env: Env
    name: str = ""  # the letrec binding it came from, for error messages

    def __str__(self) -> str:
        label = self.name or "lambda"
        return f"#<closure {label}({self.lam.param})>"


@dataclass(frozen=True, slots=True)
class VPrim(Value):
    """A (possibly partially applied) primitive.

    Carries the originating AST node so the allocation performed when the
    last argument arrives can honour the optimizer's per-site annotations
    (``node.annotations['alloc']``).
    """

    prim: Prim
    args: tuple[Value, ...] = ()

    def __str__(self) -> str:
        return f"#<prim {self.prim.name}/{len(self.args)}>"


def expect_int(value: Value, context: str, node: Expr | None = None) -> int:
    if not isinstance(value, VInt):
        raise EvalError(f"{context}: expected an int, got {value}", node.span if node else None)
    return value.value


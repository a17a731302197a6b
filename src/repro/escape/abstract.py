"""The abstract escape semantics evaluator (§3.4) and its fixpoint engine
(§3.5).

The evaluator computes ``E⟦e⟧env_e`` over the abstract domains of
:mod:`repro.escape.domain`:

* literals and ``nil`` are bottom;
* application applies the function component;
* ``lambda`` builds ``⟨V, λy.E⟦e⟧env[x↦y]⟩`` where ``V`` joins the
  contained parts of the free identifiers (the closure holds them);
* ``if`` joins both branches (the compile-time approximation of the
  oracle);
* ``letrec`` is solved by Kleene iteration from bottom.

Termination (§3.5) rests on the domains being finite.  Convergence is
detected by comparing *fingerprints*: an abstract value is evaluated at a
finite sample of its argument domain, recursively through its result type.
For first-order types the sample is the whole ``B_e`` chain, so comparison
is exact extensional equality; for higher-order argument positions the
sample is the set of points the escape tests themselves use (bottom and the
worst-case functions ``W^τ``).  A safety net caps the iteration count and
*widens* to the worst-case value if the cap is hit — safe (maximal
escapement), though no program in the paper comes close to needing it.

Production analyses run the subclass
:class:`~repro.escape.worklist.WorklistEvaluator`; the Kleene iteration
itself runs only through :func:`kleene_solve`, the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.escape.domain import (
    BOTTOM,
    ERR,
    AbsFun,
    ClosureFun,
    EscapeValue,
)
from repro.escape.lattice import BeChain, Escapement
from repro.escape.primitives import abstract_prim
from repro.escape.worst import worst_fun
from repro.lang.ast import (
    App,
    Binding,
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
    free_vars,
)
from repro.lang.errors import AnalysisError
from repro.obs import tracer as obs
from repro.robust import faults
from repro.types.infer import infer_program
from repro.types.spines import program_spine_bound
from repro.types.types import TFun, TList, TProd, Type, contains_function, spines

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import BudgetMeter

AbsEnv = dict[str, EscapeValue]

#: Nested tuple of Escapement points — the comparable image of a value.
Fingerprint = "Escapement | tuple"


def _strip_lists(ty: Type) -> Type:
    while isinstance(ty, TList):
        ty = ty.element
    return ty


def sample_domain(ty: Type, chain: BeChain) -> list[EscapeValue]:
    """A finite sample of ``D_e^τ`` used for extensional comparison.

    Complete for first-order ``τ`` (the whole ``B_e`` chain with the only
    possible function component, ``err``); for function types, bottom and
    worst-case functions at the boundary ``B_e`` points.
    """
    core = _strip_lists(ty)
    if not isinstance(core, TFun) and not (
        isinstance(core, TProd) and contains_function(core)
    ):
        return [EscapeValue(p, ERR) for p in chain.points()]
    w = worst_fun(ty)
    bes: list[Escapement] = []
    for be in (chain.bottom, Escapement(1, spines(ty)), chain.top):
        if be not in bes:
            bes.append(be)
    samples: list[EscapeValue] = []
    for be in bes:
        samples.append(EscapeValue(be, ERR))
        samples.append(EscapeValue(be, w))
    return samples


def fingerprint(value: EscapeValue, ty: Type, chain: BeChain) -> Fingerprint:
    """The comparable image of ``value`` at type ``τ``.

    Base types map to their ``B_e`` point; function types map to
    ``(b, (image at each argument sample))``, recursing through the result
    type.  Fingerprints of equal abstract functions are equal; equal
    fingerprints mean "indistinguishable at every sampled point", which for
    first-order types is full extensional equality.
    """
    core = _strip_lists(ty)
    if isinstance(core, TProd):
        # A tuple value is the join of its components; probe it at both
        # component types so functional behaviour inside tuples is compared.
        if not contains_function(core):
            return value.be
        return (
            value.be,
            (
                "prod",
                fingerprint(value, core.fst, chain),
                fingerprint(value, core.snd, chain),
            ),
        )
    if not isinstance(core, TFun):
        return value.be
    results = tuple(
        fingerprint(value.apply(sample), core.result, chain)
        for sample in sample_domain(core.arg, chain)
    )
    return (value.be, ("fun", *results))


@dataclass
class FixpointTrace:
    """The iteration history of one letrec binding (cf. Appendix A.1)."""

    name: str
    fingerprints: list[Fingerprint] = field(default_factory=list)
    converged: bool = False
    widened: bool = False

    @property
    def iterations(self) -> int:
        """Number of body re-evaluations performed."""
        return len(self.fingerprints)


class AbstractEvaluator:
    """Evaluates expressions in the abstract escape semantics.

    One evaluator is built per analysis run; it carries the program's
    ``B_e`` chain, collects fixpoint traces (per letrec binding), and counts
    evaluation steps so benches can report analysis cost.
    """

    def __init__(
        self,
        chain: BeChain,
        max_iterations: int | None = None,
        memoize: bool = False,
        meter: "BudgetMeter | None" = None,
    ):
        self.chain = chain
        self.max_iterations = max_iterations
        #: Optional budget meter (wall-clock deadline + work limits);
        #: breaches raise :class:`~repro.robust.errors.BudgetExceeded`,
        #: which a budgeted analysis turns into a sound W^τ degradation.
        self.meter = meter
        self.steps = 0
        self.traces: list[FixpointTrace] = []
        # Optional application cache: abstract evaluation is pure, so a
        # closure applied twice to the same abstract value gives the same
        # result.  Keyed by (closure identity, argument value); addresses
        # the §7 worry about fixpoint cost (see the AB3 ablation bench).
        self.memo: dict | None = {} if memoize else None
        #: Per-iteration environments of the most recent solve (index 0 is
        #: the bottom environment) — lets tooling replay the Appendix A.1
        #: derivation (``append⁽¹⁾``, ``append⁽²⁾``, ...).
        self.iterates: list[AbsEnv] = []

    # -- public API ----------------------------------------------------------

    def eval(self, expr: Expr, env: AbsEnv) -> EscapeValue:
        """``E⟦expr⟧env``."""
        self.steps += 1
        if self.meter is not None:
            self.meter.tick_eval()
        if isinstance(expr, (IntLit, BoolLit, NilLit)):
            return BOTTOM
        if isinstance(expr, Prim):
            return abstract_prim(expr)
        if isinstance(expr, Var):
            value = env.get(expr.name)
            if value is None:
                raise AnalysisError(
                    f"identifier {expr.name!r} is not in the abstract environment",
                    expr.span,
                )
            return value
        if isinstance(expr, App):
            fn_value = self.eval(expr.fn, env)
            arg_value = self.eval(expr.arg, env)
            return fn_value.apply(arg_value)
        if isinstance(expr, Lambda):
            return self._eval_lambda(expr, env)
        if isinstance(expr, If):
            self.eval(expr.cond, env)  # a bool escapes nothing; evaluated for cost
            then_value = self.eval(expr.then, env)
            else_value = self.eval(expr.otherwise, env)
            return then_value.join(else_value)
        if isinstance(expr, Letrec):
            solved = self.solve_bindings(expr, env)
            return self.eval(expr.body, solved)
        raise AnalysisError(f"cannot abstractly evaluate {type(expr).__name__}", expr.span)

    def _eval_lambda(self, expr: Lambda, env: AbsEnv) -> EscapeValue:
        # V = ⟨0,0⟩ ⊔ ⨆_{z ∈ F} (env⟦z⟧)₍₁₎ — the closure contains its free
        # identifiers.
        contained = self.chain.bottom
        for name in free_vars(expr):
            bound = env.get(name)
            if bound is None:
                raise AnalysisError(
                    f"free identifier {name!r} of a lambda is not in the abstract environment",
                    expr.span,
                )
            contained = contained.join(bound.be)
        captured = dict(env)
        return EscapeValue(contained, ClosureFun(expr.param, expr.body, captured, self))

    # -- letrec fixpoint ---------------------------------------------------

    def default_iteration_cap(self, n_bindings: int) -> int:
        """A bound comfortably above the lattice height of the bindings."""
        return self.chain.height() * max(1, n_bindings) * 4 + 8

    def solve_bindings(self, letrec: Letrec, env: AbsEnv) -> AbsEnv:
        """Kleene iteration: the least fixpoint of the letrec bindings,
        returned as ``env`` extended with the converged values."""
        faults.check_stage("solve")
        bindings = letrec.bindings
        if not bindings:
            return env
        for binding in bindings:
            if binding.expr.ty is None:
                raise AnalysisError(
                    f"binding {binding.name!r} is not type-annotated; "
                    "run infer_program before the escape analysis",
                    binding.span,
                )

        cap = self.max_iterations or self.default_iteration_cap(len(bindings))
        traces = {b.name: FixpointTrace(b.name) for b in bindings}
        self.traces.extend(traces.values())

        current: AbsEnv = {b.name: BOTTOM for b in bindings}
        previous_fps = {
            b.name: fingerprint(BOTTOM, b.expr.ty, self.chain) for b in bindings
        }
        self.iterates = [dict(current)]
        tracing = obs.tracing()
        names = [b.name for b in bindings]

        for k in range(1, cap + 1):
            if self.meter is not None:
                self.meter.tick_iteration()
            iter_env = {**env, **current}
            new_values = {b.name: self.eval(b.expr, iter_env) for b in bindings}
            new_fps = {
                b.name: fingerprint(new_values[b.name], b.expr.ty, self.chain)
                for b in bindings
            }
            for b in bindings:
                traces[b.name].fingerprints.append(new_fps[b.name])
            current = new_values
            self.iterates.append(dict(current))
            if tracing is not None:
                tracing.emit(
                    "fixpoint_iteration",
                    iteration=k,
                    values={name: str(new_fps[name]) for name in names},
                )
            if new_fps == previous_fps:
                for trace in traces.values():
                    trace.converged = True
                if tracing is not None:
                    tracing.emit("fixpoint_converged", names=names, iterations=k)
                break
            previous_fps = new_fps
        else:
            # Safety net: widen to the worst case (maximal escapement).
            for binding in bindings:
                current[binding.name] = EscapeValue(
                    self.chain.top, worst_fun(binding.expr.ty)
                )
                traces[binding.name].widened = True
            if tracing is not None:
                tracing.emit("fixpoint_widened", names=names, cap=cap)

        return {**env, **current}

    # -- convenience --------------------------------------------------------

    def values_equal(self, left: EscapeValue, right: EscapeValue, ty: Type) -> bool:
        """Extensional equality at type ``τ`` (exact for first-order τ)."""
        return fingerprint(left, ty, self.chain) == fingerprint(right, ty, self.chain)

    def value_leq(self, left: EscapeValue, right: EscapeValue, ty: Type) -> bool:
        """Extensional ⊑ at type ``τ``, compared pointwise on fingerprints."""
        return _fp_leq(
            fingerprint(left, ty, self.chain), fingerprint(right, ty, self.chain)
        )


def _fp_leq(left: Fingerprint, right: Fingerprint) -> bool:
    if isinstance(left, Escapement) and isinstance(right, Escapement):
        return left.leq(right)
    assert isinstance(left, tuple) and isinstance(right, tuple)
    left_be, left_body = left
    right_be, right_body = right
    if not left_be.leq(right_be):
        return False
    assert left_body[0] == right_body[0]  # same structure tag: fun or prod
    return all(
        _fp_leq(l, r) for l, r in zip(left_body[1:], right_body[1:], strict=True)
    )


def kleene_solve(
    program: Program, d: int | None = None, memoize: bool = False
) -> tuple[AbstractEvaluator, AbsEnv]:
    """The paper's analysis of ``program`` as written (§3.5): the whole
    letrec knot solved jointly by Kleene iteration from bottom, over the
    ``B_e`` chain bounded by ``d`` (default: the program's spine bound).

    Infers ``program`` in place, then returns the evaluator (its chain,
    traces and step count) and the solved environment.  No production
    path calls it: it is the reference the worklist evaluator is tested
    against, and what the Appendix A.1 benchmarks print.
    """
    infer_program(program)
    evaluator = AbstractEvaluator(
        BeChain(d if d is not None else program_spine_bound(program)),
        memoize=memoize,
    )
    return evaluator, evaluator.solve_bindings(program.letrec, {})

"""The analysis front door: :class:`EscapeAnalysis`.

Ties the pieces together for one program:

1. type inference (with optional per-query monotype *pins*, §5),
2. the ``B_e`` chain sized by the program's spine bound ``d``,
3. the abstract evaluator and its letrec fixpoint,
4. the global (§4.1) and local (§4.2) escape tests.

Since the query-engine refactor, :class:`EscapeAnalysis` is a thin facade
over an :class:`~repro.query.AnalysisSession`: solves are keyed by stable
fingerprints ``(program, pins, d, max_iterations)`` and cached, the letrec
fixpoint is solved per strongly connected component in callees-first order
(:mod:`repro.escape.scc`) with per-SCC reuse across queries, and every
solve runs on a session-private clone of the program — queries never
mutate the caller's AST, and repeated questions cost cache lookups instead
of whole-program re-analysis.  Because the ``car^s`` annotations — and
therefore the abstract values of the functions — depend on the monotype
instance being analyzed, a pinned query still re-infers its private clone
with the instance pinned; only the components the pin's types reach are
re-solved.

With a ``budget`` (:class:`~repro.robust.budget.AnalysisBudget`) every
global and local test runs under a meter of its own and always answers.
A budget breach or a degradable failure
(:func:`~repro.robust.errors.classify`) yields the ``W^τ`` worst case
⟨1, sᵢ⟩ for each queried parameter — sound for every application by
Definition 2 — and the result records why in its ``degradation``.  A
retryable failure is retried once first; a fatal one (an untypeable
program, a tripped soundness tripwire) propagates, because there is
nothing sound to degrade to or degrading would mask a real defect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.escape.global_test import run_global_test
from repro.escape.local_test import run_local_test
from repro.escape.results import EscapeTestResult
from repro.escape.worst import worst_test_result
from repro.lang.ast import Expr, Program, Var, uncurry_app
from repro.lang.errors import AnalysisError
from repro.lang.parser import parse_expr
from repro.obs import tracer as obs
from repro.query import AnalysisSession, SessionStats, SolvedProgram
from repro.robust import faults
from repro.robust.errors import (
    DeadlineExceeded,
    IterationBudgetExceeded,
    Severity,
    WorkBudgetExceeded,
    classify,
    degradation_for,
)
from repro.types.types import Type, TypeScheme, arity, fun_args

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import AnalysisBudget, BudgetMeter
    from repro.store import AnalysisStore

__all__ = ["EscapeAnalysis", "SolvedProgram"]


def _stage_of(error: BaseException) -> str:
    """The analysis stage ``error`` cut short."""
    stage = getattr(error, "stage", "")
    if stage:
        return stage
    if isinstance(error, IterationBudgetExceeded):
        return "fixpoint"
    if isinstance(error, (WorkBudgetExceeded, DeadlineExceeded)):
        return "abstract-eval"
    return "analysis"


def _charge(meter: "BudgetMeter") -> None:
    """Emit what the finished (or cut-off) query actually spent."""
    spent = meter.spent()
    obs.emit(
        "budget_charge",
        wall_s=round(spent.wall_seconds, 9),
        eval_steps=spent.eval_steps,
        iterations=spent.iterations,
    )


class EscapeAnalysis:
    """Escape analysis of one nml program.

    >>> from repro.lang import paper_partition_sort
    >>> analysis = EscapeAnalysis(paper_partition_sort())
    >>> str(analysis.global_test("append", 1).result)
    '<1,0>'
    """

    def __init__(
        self,
        program: Program,
        d: int | None = None,
        max_iterations: int | None = None,
        meter: "BudgetMeter | None" = None,
        session: AnalysisSession | None = None,
        store: "AnalysisStore | None" = None,
        budget: "AnalysisBudget | None" = None,
    ):
        if budget is not None and meter is not None:
            raise AnalysisError("an analysis takes a budget or a meter, not both")
        self.program = program
        #: Optional budget meter (:mod:`repro.robust.budget`) shared by every
        #: solve this analysis performs: ticked on every abstract-evaluation
        #: step and fixpoint iteration, and a breach propagates to the
        #: caller.  The optimizer's survey charges itself to one meter this
        #: way.  Store hits decode persisted values without abstract
        #: evaluation, so they are never charged.
        self.meter = meter
        #: Optional per-query budget: each global and local test runs under
        #: a fresh meter of it and degrades to ``W^τ`` instead of raising.
        #: The session's caches span queries, so a query is charged only
        #: for the cache misses it actually solves.
        self.budget = budget
        if session is not None:
            if session.program is not program:
                raise AnalysisError(
                    "the analysis session was created for a different program"
                )
            if d is not None and d != session.d_override:
                raise AnalysisError(
                    f"d={d} conflicts with the session's d={session.d_override}"
                )
            if max_iterations is not None and max_iterations != session.max_iterations:
                raise AnalysisError(
                    f"max_iterations={max_iterations} conflicts with the "
                    f"session's max_iterations={session.max_iterations}"
                )
            if store is not None and store is not session.store:
                raise AnalysisError(
                    "store conflicts with the session's attached store"
                )
            self.session = session
        else:
            self.session = AnalysisSession(
                program, d=d, max_iterations=max_iterations, store=store
            )
        self.d_override = self.session.d_override
        self.max_iterations = self.session.max_iterations
        #: The most recent solve — exposes fixpoint traces to callers.
        self.last_solved: SolvedProgram | None = None

    # -- session accounting ------------------------------------------------

    @property
    def stats(self) -> SessionStats:
        """Cache and work accounting of the underlying session."""
        return self.session.stats

    # -- schemes -----------------------------------------------------------

    @property
    def schemes(self) -> dict[str, TypeScheme]:
        return self.session.schemes

    def scheme(self, name: str) -> TypeScheme:
        return self.session.scheme(name)

    def function_names(self) -> tuple[str, ...]:
        return self.program.binding_names()

    # -- solving -------------------------------------------------------------

    def solve(self, pins: dict[str, Type] | None = None) -> SolvedProgram:
        """The solved program at ``pins`` — served from the session's solve
        cache when the same question was already answered."""
        with self.session.query(self.meter):
            solved = self.session.solve(pins)
        self.last_solved = solved
        return solved

    def _binding_type(self, solved: SolvedProgram, name: str) -> Type:
        try:
            binding = solved.program.binding(name)
        except KeyError:
            raise AnalysisError(f"no top-level binding named {name!r}") from None
        assert binding.expr.ty is not None
        return binding.expr.ty

    def binding_type(self, name: str, solved: SolvedProgram | None = None) -> Type:
        """The inferred monotype of a top-level binding on the solved
        clone; without one, the type the unpinned solve analyzes, read
        without solving."""
        if solved is None:
            return self.session.base_type(name)
        return self._binding_type(solved, name)

    # -- global test (§4.1) ---------------------------------------------------

    def global_test(
        self,
        function: str,
        i: int,
        instance: Type | None = None,
        n_args: int | None = None,
    ) -> EscapeTestResult:
        """``G(function, i)`` — optionally at a pinned monotype instance."""
        if self.budget is None:
            return self._global_test(self.meter, function, i, instance, n_args)
        arg_types = fun_args(self._type_at(function, instance))[0]
        if not 1 <= i <= len(arg_types):
            raise AnalysisError(f"parameter index {i} out of range 1..{len(arg_types)}")
        return self._budgeted(
            lambda meter: [self._global_test(meter, function, i, instance, n_args)],
            function,
            arg_types,
            [i],
            "global",
        )[0]

    def _global_test(
        self,
        meter: "BudgetMeter | None",
        function: str,
        i: int,
        instance: Type | None,
        n_args: int | None,
    ) -> EscapeTestResult:
        pins = {function: instance} if instance is not None else None
        with obs.span("global_test", function=function, param=i):
            with self.session.query(meter):
                solved = self.session.solve(pins)
                self.last_solved = solved
                fn_type = self._binding_type(solved, function)
                return run_global_test(
                    solved.evaluator, solved.env, function, fn_type, i, n_args=n_args
                )

    def global_all(
        self,
        function: str,
        instance: Type | None = None,
        n_args: int | None = None,
    ) -> list[EscapeTestResult]:
        """``G(function, i)`` for every parameter position ``i``.

        ``n_args`` defaults to the full arity of the (instance) type; pass
        the syntactic arity to treat deeper arrows contributed by a
        function-typed instance as part of the *result*, not as parameters.
        """
        if self.budget is None:
            return self._global_all(self.meter, function, instance, n_args)
        fn_type = self._type_at(function, instance)
        arg_types = fun_args(fn_type)[0]
        n = min(n_args if n_args is not None else len(arg_types), len(arg_types))
        if n == 0:
            raise AnalysisError(f"{function} takes no arguments (type {fn_type})")
        return self._budgeted(
            lambda meter: self._global_all(meter, function, instance, n_args),
            function,
            arg_types,
            range(1, n + 1),
            "global",
        )

    def _global_all(
        self,
        meter: "BudgetMeter | None",
        function: str,
        instance: Type | None,
        n_args: int | None,
    ) -> list[EscapeTestResult]:
        pins = {function: instance} if instance is not None else None
        with obs.span("global_all", function=function):
            with self.session.query(meter):
                solved = self.session.solve(pins)
                self.last_solved = solved
                fn_type = self._binding_type(solved, function)
                n = n_args if n_args is not None else arity(fn_type)
                if n == 0:
                    raise AnalysisError(
                        f"{function} takes no arguments (type {fn_type})"
                    )
                return [
                    run_global_test(
                        solved.evaluator, solved.env, function, fn_type, i, n_args=n
                    )
                    for i in range(1, n + 1)
                ]

    def syntactic_arity(self, function: str) -> int:
        """The number of top-level lambdas of a binding — the paper's ``n``
        for "a function of n arguments"."""
        from repro.lang.ast import uncurry_lambda

        try:
            binding = self.program.binding(function)
        except KeyError:
            raise AnalysisError(f"no top-level binding named {function!r}") from None
        return len(uncurry_lambda(binding.expr)[0])

    # -- local test (§4.2) -----------------------------------------------------

    def local_test(self, call: "Expr | str", i: int | None = None):
        """``L(f, i, e₁…eₙ)`` for a call expression over this program's
        top-level functions.

        ``call`` may be source text (e.g. ``"map pair [[1, 2]]"``) or an
        AST.  Returns the result for parameter ``i``, or a list over all
        parameters when ``i`` is None.  The variant program is solved on a
        private clone, so neither the session program nor the caller's
        expression is re-typed in place.

        Under a budget only a call whose head is a top-level binding, and
        which does not pass it more arguments than it takes, can degrade:
        the worst case needs the head's parameter types.  Any other call
        propagates its failure.
        """
        expr = parse_expr(call) if isinstance(call, str) else call
        head, args = uncurry_app(expr)
        indices = [i] if i is not None else list(range(1, len(args) + 1))
        if self.budget is None:
            results = self._local_tests(self.meter, expr, indices)
        else:
            function, arg_types = "", None
            if isinstance(head, Var) and head.name in self.program.binding_names():
                function = head.name
                arg_types = fun_args(self.session.base_type(function))[0]
                if len(args) > len(arg_types):
                    arg_types = None
            results = self._budgeted(
                lambda meter: self._local_tests(meter, expr, indices),
                function,
                arg_types,
                indices,
                "local",
            )
        return results[0] if i is not None else results

    def _local_tests(
        self, meter: "BudgetMeter | None", expr: Expr, indices: list[int]
    ) -> list[EscapeTestResult]:
        _, args = uncurry_app(expr)
        if not args:
            raise AnalysisError("local test target must be an application")

        with obs.span("local_test"), self.session.query(meter):
            solved, fn_value, label = self.session.solve_call(expr)
            self.last_solved = solved

            _, solved_args = uncurry_app(solved.program.body)
            arg_values = [
                solved.evaluator.eval(arg, solved.env) for arg in solved_args
            ]
            arg_types: list[Type] = []
            for arg in solved_args:
                assert arg.ty is not None
                arg_types.append(arg.ty)
            return [
                run_local_test(
                    solved.evaluator, fn_value, label, arg_values, arg_types, j
                )
                for j in indices
            ]

    # -- budgeted queries ------------------------------------------------------

    def _type_at(self, function: str, instance: Type | None) -> Type:
        """The queried instance's type, known before solving: a degraded
        answer must use the *instance* spine counts to stay ⊒ the exact
        answer."""
        return instance if instance is not None else self.session.base_type(function)

    def _budgeted(
        self,
        query: "Callable[[BudgetMeter], list[EscapeTestResult]]",
        function: str,
        arg_types: "Sequence[Type] | None",
        indices: Sequence[int],
        kind: str,
    ) -> list[EscapeTestResult]:
        """Answer ``query`` under a fresh meter of the budget, or degrade:
        the ``W^τ`` worst case for each of ``indices``, from ``arg_types``.
        ``arg_types=None`` means the query cannot degrade."""
        assert self.budget is not None
        meter = self.budget.start()
        retried = False
        while True:
            try:
                faults.check_stage("query")
                results = query(meter)
            except Exception as error:
                severity = classify(error)
                if severity is Severity.RETRYABLE and not retried:
                    retried = True
                    continue
                if severity is Severity.FATAL or arg_types is None:
                    raise
                degradation = degradation_for(error, _stage_of(error), meter)
                # Name the degraded query so `repro explain` can tie the
                # fallback to its binding even when the solver never got far
                # enough to emit any solve events of its own.
                obs.emit(
                    "degradation",
                    reason=degradation.reason,
                    stage=degradation.stage,
                    function=function,
                )
                _charge(meter)
                return [
                    worst_test_result(function, j, arg_types[j - 1], kind, degradation)
                    for j in indices
                ]
            _charge(meter)
            return results

    # -- convenience -------------------------------------------------------------

    def escaping_spines(self, function: str) -> list[int]:
        """``esc_i`` for every parameter — the input to the sharing analysis
        (Theorem 2)."""
        return [r.escaping_spines for r in self.global_all(function)]

    def arg_spine_counts(self, function: str) -> list[int]:
        """``d_i`` for every parameter."""
        solved = self.solve(None)
        fn_type = self._binding_type(solved, function)
        from repro.types.types import spines as spine_count

        return [spine_count(t) for t in fun_args(fn_type)[0]]

    def sharing_classes(self) -> dict[str, frozenset[str]]:
        """May-share name classes from the worklist evaluator's union-find
        partition: per binding, the names its value may share structure
        with — the coarse companion to the Theorem-2 top-spine bound."""
        self.solve(None)
        return self.session.sharing_classes()

    def heap_liveness(self):
        """Interprocedural heap-liveness facts
        (:class:`repro.analysis.heap_liveness.HeapLivenessFacts`) from the
        session's SCC-memoized summaries — warm solves decode the same
        facts the cold solve computed.  Degraded (all-⊤) when any
        binding's summary is unavailable."""
        from repro.analysis.heap_liveness import facts_from_summaries

        solved = self.solve(None)
        decoded = {}
        from repro.analysis.heap_liveness import decode_summary

        for name, payload in solved.liveness.items():
            try:
                decoded[name] = decode_summary(payload)
            except Exception:
                continue
        return facts_from_summaries(solved.program, decoded, cap=solved.d + 1)

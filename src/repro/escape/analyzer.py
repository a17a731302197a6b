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
"""

from __future__ import annotations

from repro.escape.global_test import run_global_test
from repro.escape.local_test import run_local_test
from repro.escape.results import EscapeTestResult
from repro.lang.ast import Expr, uncurry_app
from repro.lang.errors import AnalysisError
from repro.lang.parser import parse_expr
from repro.lang.ast import Program
from repro.obs import tracer as obs
from repro.query import AnalysisSession, SessionStats, SolvedProgram
from repro.types.types import Type, TypeScheme, arity, fun_args

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import BudgetMeter
    from repro.store import AnalysisStore

__all__ = ["EscapeAnalysis", "SolvedProgram"]


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
    ):
        self.program = program
        #: Optional budget meter from the hardened engine
        #: (:mod:`repro.robust`): ticked on every abstract-evaluation step
        #: and fixpoint iteration of every solve this analysis performs.
        #: Store hits decode persisted values without abstract evaluation,
        #: so they are never charged.
        self.meter = meter
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
        clone (solves at the default instance if none is given)."""
        return self._binding_type(solved or self.solve(None), name)

    # -- global test (§4.1) ---------------------------------------------------

    def global_test(
        self,
        function: str,
        i: int,
        instance: Type | None = None,
        n_args: int | None = None,
    ) -> EscapeTestResult:
        """``G(function, i)`` — optionally at a pinned monotype instance."""
        pins = {function: instance} if instance is not None else None
        with obs.span("global_test", function=function, param=i):
            with self.session.query(self.meter):
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
        pins = {function: instance} if instance is not None else None
        with obs.span("global_all", function=function):
            with self.session.query(self.meter):
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
        """
        expr = parse_expr(call) if isinstance(call, str) else call
        head, args = uncurry_app(expr)
        if not args:
            raise AnalysisError("local test target must be an application")

        with obs.span("local_test"), self.session.query(self.meter):
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

            if i is not None:
                return run_local_test(
                    solved.evaluator, fn_value, label, arg_values, arg_types, i
                )
            return [
                run_local_test(
                    solved.evaluator, fn_value, label, arg_values, arg_types, j
                )
                for j in range(1, len(solved_args) + 1)
            ]

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

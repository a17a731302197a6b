"""The session-scoped query engine behind :class:`~repro.escape.analyzer.EscapeAnalysis`.

An :class:`AnalysisSession` turns the escape analysis from a batch re-run
into a demand-driven query system, in the style of compiler query engines:

* **Stable keys.**  A solve is identified by
  ``(program_fp, pins_fp, d, max_iterations)`` — structural fingerprints
  from :mod:`repro.lang.fingerprint` and :mod:`repro.types.types` — so the
  same question asked twice returns the cached :class:`SolvedProgram`.
* **SCC scheduling.**  The letrec binding graph is decomposed into
  strongly connected components (:mod:`repro.escape.scc`) and each knot's
  fixpoint is solved callees-first.  Per-SCC results are cached under the
  *typed* fingerprint of the knot's bindings plus the provenance of its
  dependencies, so a pinned query re-solves only the components the pin's
  types actually change and reuses the cached environments for the rest.
* **Isolation.**  Every solve runs on a private :func:`clone_program` of
  the session program, so type (re-)inference never clobbers ``.ty``
  annotations on the caller's AST — including the local test's variant
  programs, which historically shared binding nodes across queries.
* **Derived sessions.**  :meth:`AnalysisSession.derive` opens a session
  for a rewrite of the session program (the optimizer's ``P + f_reuse``,
  the auditor's dcons-erased program).  It owns its program, base
  inference, stats and sharing classes, and shares every content-addressed
  tier with its parent: the solve, local-test and SCC caches, the node
  index, the store and the evaluator registry.  Every shared tier is keyed
  by content, so a derived session reuses exactly the answers whose inputs
  hash identically and re-derives everything a rewrite changed.
* **Accounting.**  Each query tallies cache hits/misses, fixpoint
  iterations and abstract-evaluation steps (:class:`QueryStats`,
  aggregated into :class:`SessionStats`), and the budget meters of a
  budgeted analysis charge only the work a query actually performs: a cache
  hit — in-memory or from the store — costs no fixpoint iterations, while
  deadlines are still enforced at every solve entry.

Dependency identity is tracked by *provenance digests*
(:func:`scc_digest`): each solved SCC is named by a content hash chaining
its typed bindings fingerprint, the chain bound ``d``, the iteration cap,
and its dependencies' digests.  Equal digests mean the abstract evaluator
saw identical inputs all the way down, so reuse is bit-identical; and
because the digest is a plain string — not a process-local ``id()`` token,
as in earlier revisions — the same key is derived in every session and
every process, which is what lets an on-disk :class:`repro.store.AnalysisStore`
act as a second, cross-process cache tier behind the in-memory one.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.heap_liveness import (
    LivenessSummary,
    decode_summary,
    encode_summary,
    summarize_scc,
)
from repro.escape.abstract import AbsEnv, FixpointTrace
from repro.escape.domain import EscapeValue
from repro.escape.lattice import BeChain
from repro.escape.scc import binding_sccs
from repro.escape.serialize import (
    NodeIndex,
    SerializationError,
    decode_entry,
    encode_entry,
)
from repro.escape.serialize import CODEC_VERSION as _CODEC_VERSION
from repro.escape.worklist import AliasPartition, WorklistEvaluator
from repro.lang.ast import Letrec, Program, Var, clone_program, uncurry_app
from repro.lang.errors import AnalysisError
from repro.lang.fingerprint import (
    bindings_fingerprint,
    expr_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.obs import tracer as obs
from repro.types.infer import InferenceResult, infer_program
from repro.types.spines import program_spine_bound
from repro.types.types import Type, TypeScheme, pins_fingerprint

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.robust.budget import BudgetMeter
    from repro.store import AnalysisStore

#: Version of the digest derivation itself.  Chained into every SCC digest
#: together with the value-codec version, so changing either the key
#: material or the payload representation retires all previously stored
#: entries at once.  Version 2 added the evaluator's name, ``"worklist"``,
#: to the key material.
DIGEST_VERSION = 2


def scc_digest(
    typed_fingerprint: str,
    d: int,
    max_iterations: int | None,
    dependencies: dict[str, str],
) -> str:
    """The stable provenance digest of one SCC's fixpoint.

    ``dependencies`` maps each dependency binding name to *its* digest, so
    the hash chains through the whole callees-first solve order: two SCCs
    share a digest exactly when their typed bindings and the full analysis
    provenance beneath them agree, along with every analysis-relevant
    configuration knob (``d`` and the iteration cap both change abstract
    values, so they are key material, not metadata).  The literal
    ``"worklist"`` is key material from the time two evaluators shared the
    store; it stays so that every stored entry keeps its key.
    """
    return stable_digest(
        [
            "scc",
            DIGEST_VERSION,
            _CODEC_VERSION,
            "worklist",
            typed_fingerprint,
            d,
            max_iterations,
            sorted(dependencies.items()),
        ]
    )


@dataclass
class SolvedProgram:
    """One solved analysis instance: typed program + converged environment.

    ``program`` is the session-private typed clone the solve ran on — the
    authoritative source for instance types (the caller's AST keeps its
    base-inference types untouched).  An unpinned solve runs on the clone
    taken at session start, typed by the session's base ``inference``;
    a pinned one re-infers a fresh clone.  ``traces`` are in program binding
    order; ``scc_iterates`` holds, per binding, the per-iteration
    environments of its component's fixpoint (index 0 is bottom), merged
    with the already-solved dependency values so Appendix A.1 derivations
    can be replayed.
    """

    inference: InferenceResult
    evaluator: WorklistEvaluator
    env: AbsEnv
    d: int
    program: Program
    traces: list[FixpointTrace] = field(default_factory=list)
    scc_iterates: dict[str, list[AbsEnv]] = field(default_factory=dict)
    #: Per-binding provenance digest of the component that solved it — the
    #: key its fixpoint is cached (and stored) under.
    scc_digests: dict[str, str] = field(default_factory=dict)
    #: Per-binding heap-liveness summaries (encoded,
    #: cf. :func:`repro.analysis.heap_liveness.encode_summary`), collected
    #: from the same SCC entries as the lattice values so warm and cold
    #: solves expose identical facts.  Empty for bindings whose summary
    #: could not be computed — consumers degrade to ``⊤``.
    liveness: dict[str, dict] = field(default_factory=dict)

    def trace(self, name: str) -> FixpointTrace:
        for t in self.traces:
            if t.name == name:
                return t
        raise AnalysisError(f"no fixpoint trace for {name!r}")

    def iterates_for(self, name: str) -> list[AbsEnv]:
        """The fixpoint iterates of ``name``'s component (bottom first),
        each extended with the solved dependency environment."""
        try:
            return self.scc_iterates[name]
        except KeyError:
            raise AnalysisError(f"no fixpoint iterates for {name!r}") from None


@dataclass
class QueryStats:
    """Work accounting for one analysis query.

    ``store_*`` counters track the on-disk tier: a store hit also counts as
    an SCC cache hit (the component was not re-solved), a store miss only
    accompanies an SCC miss, and a store write records one persisted
    fixpoint.  All three stay zero when no store is attached.
    """

    solve_hits: int = 0
    solve_misses: int = 0
    scc_hits: int = 0
    scc_misses: int = 0
    iterations: int = 0
    eval_steps: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    #: Transfer evaluations over the IR — the unit the worklist evaluator
    #: counts its ``eval_steps`` in, so always equal to ``eval_steps``.
    worklist_evals: int = 0

    def add(self, other: "QueryStats") -> None:
        self.solve_hits += other.solve_hits
        self.solve_misses += other.solve_misses
        self.scc_hits += other.scc_hits
        self.scc_misses += other.scc_misses
        self.iterations += other.iterations
        self.eval_steps += other.eval_steps
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.store_writes += other.store_writes
        self.worklist_evals += other.worklist_evals

    def summary(self) -> str:
        text = (
            f"solve cache {self.solve_hits} hit(s) / {self.solve_misses} miss(es), "
            f"scc cache {self.scc_hits} hit(s) / {self.scc_misses} miss(es), "
            f"{self.iterations} fixpoint iteration(s), "
            f"{self.eval_steps} eval step(s)"
        )
        if self.worklist_evals:
            text += f" ({self.worklist_evals} transfer eval(s))"
        if self.store_hits or self.store_misses or self.store_writes:
            text += (
                f", store {self.store_hits} hit(s) / {self.store_misses} miss(es)"
                f" / {self.store_writes} write(s)"
            )
        return text


@dataclass
class SessionStats(QueryStats):
    """Aggregate accounting across every query of a session."""

    queries: int = 0
    last_query: QueryStats | None = None

    def summary(self) -> str:
        return f"{self.queries} query(ies): " + super().summary()


@dataclass
class _SCCEntry:
    """One cached per-SCC fixpoint, keyed by its provenance digest
    (:func:`scc_digest`), which downstream components chain into theirs."""

    values: dict[str, EscapeValue]
    traces: list[FixpointTrace]
    iterates: list[AbsEnv]
    base_env: AbsEnv
    iterations: int
    #: the worklist evaluator's may-share classes for this component
    #: (name -> sorted members), persisted with the fixpoint so a store
    #: hit reproduces the complete result, sharing partition included
    sharing: dict = field(default_factory=dict)
    #: the component's heap-liveness summaries (name -> encoded summary),
    #: persisted alongside so the collector zoo and diff artifacts see the
    #: same facts warm and cold
    liveness: dict = field(default_factory=dict)


@dataclass
class _Sharing:
    """Where one program's may-share classes come from: the evaluators its
    solves created and the SCC entries they touched (hits included)."""

    evaluators: list[WorklistEvaluator] = field(default_factory=list)
    scc_classes: list[dict] = field(default_factory=list)


class _Tiers:
    """The content-addressed state a session and its derived sessions
    share.  Every cache is keyed by what a question *is* (fingerprints and
    digests), never by which session asked it."""

    def __init__(self, store: "AnalysisStore | None"):
        #: ``(program_fp, pins_fp, d, max_iterations)`` -> solved program
        self.solves: dict[tuple, SolvedProgram] = {}
        #: ``(program_fp, call_fp, d, max_iterations)`` -> the local
        #: test's solved variant, head value and label
        self.calls: dict[tuple, tuple[SolvedProgram, EscapeValue, str]] = {}
        #: :func:`scc_digest` -> solved component
        self.sccs: dict[str, _SCCEntry] = {}
        #: Optional on-disk second cache tier (read-through on SCC misses,
        #: write-behind on fresh solves).  Store hits perform no fixpoint
        #: iterations and tick no budget meter.
        self.store = store
        #: AST paths for value serialization, spanning every clone the
        #: family solved on (cached dependency values can carry closures
        #: over earlier clones).  Only populated when a store is attached.
        self.node_index = NodeIndex() if store is not None else None
        #: Every evaluator the family ever created.  Cached closure values
        #: tick their *creating* evaluator, so a query's meter must be
        #: installed on all of them, and cleared afterwards.
        self.evaluators: list[WorklistEvaluator] = []
        #: program fingerprint -> its sharing sources, so each program's
        #: classes stay its own however many sessions solve on it
        self.sharing: dict[str, _Sharing] = {}


class AnalysisSession:
    """A cache-carrying scope for escape-analysis queries over one program.

    The session owns its program, the base (unpinned) inference, its stats
    and its program's sharing classes.  The caches, the store and the
    registry of abstract evaluators whose closures later queries may
    re-enter (so budget meters can be installed on all of them for the
    duration of a query) live in tiers it shares with every session
    derived from it.  ``parent`` is how :meth:`derive` builds such a
    session; a derived session takes its configuration (``d``,
    ``max_iterations``, store) from the parent.
    """

    def __init__(
        self,
        program: Program,
        d: int | None = None,
        max_iterations: int | None = None,
        store: "AnalysisStore | None" = None,
        parent: "AnalysisSession | None" = None,
    ):
        self.program = program
        if parent is not None:
            if (d, max_iterations, store) != (None, None, None):
                raise AnalysisError(
                    "a derived session takes its configuration from its parent"
                )
            d, max_iterations = parent.d_override, parent.max_iterations
            self._tiers = parent._tiers
        else:
            self._tiers = _Tiers(store)
        self.d_override = d
        self.max_iterations = max_iterations
        self.store = self._tiers.store
        # Base inference: exposes the (possibly polymorphic) schemes and
        # stamps the caller's AST with the default instance, as the
        # pre-session analyzer did.  The unpinned solve runs on a clone
        # taken now: a later derived session's inference re-stamps any
        # binding nodes its program shares with this one.
        self._base_inference = infer_program(program)
        self._base_clone = clone_program(program)
        self.program_fingerprint = program_fingerprint(program)
        self.stats = SessionStats()
        self._sharing = self._tiers.sharing.setdefault(
            self.program_fingerprint, _Sharing()
        )
        self._active_meter: "BudgetMeter | None" = None
        self._query_depth = 0
        self._current: QueryStats | None = None
        self._steps_at_begin = 0

    # -- schemes -----------------------------------------------------------

    @property
    def schemes(self) -> dict[str, TypeScheme]:
        return self._base_inference.schemes

    def scheme(self, name: str) -> TypeScheme:
        return self._base_inference.scheme(name)

    def base_type(self, name: str) -> Type:
        """A top-level binding's monotype at the default instance — the
        type the unpinned solve analyzes — known before anything is
        solved."""
        try:
            binding = self._base_clone.binding(name)
        except KeyError:
            raise AnalysisError(f"no top-level binding named {name!r}") from None
        assert binding.expr.ty is not None
        return binding.expr.ty

    # -- derived sessions --------------------------------------------------

    def derive(self, program: Program) -> "AnalysisSession":
        """A session for ``program`` — typically a rewrite of this session's
        program — that shares this session's content-addressed tiers and
        configuration.  Returns ``self`` for this session's own program.

        Sharing is safe because nothing is keyed by session: a solve is
        answered from the cache only when its program, pins and
        configuration fingerprint identically, an SCC only when its
        provenance digest does, and a rewrite that changes a binding
        changes both.
        """
        if program is self.program:
            return self
        return AnalysisSession(program, parent=self)

    # -- query scope -------------------------------------------------------

    @contextmanager
    def query(self, meter: "BudgetMeter | None" = None) -> Iterator[QueryStats]:
        """Scope one query: installs ``meter`` on every session evaluator
        (outermost scope wins) and tallies the query's work on exit.

        A nested scope must not carry its own meter — the outer budget
        stays installed, so honouring the inner one silently is impossible.
        Passing a different meter from a nested scope is therefore reported
        as a :class:`UserWarning` instead of being dropped without a trace.
        """
        self._query_depth += 1
        if self._query_depth == 1:
            self.stats.queries += 1
            self._current = QueryStats()
            self._active_meter = meter
            for evaluator in self._tiers.evaluators:
                evaluator.meter = meter
            self._steps_at_begin = sum(e.steps for e in self._tiers.evaluators)
        elif meter is not None and meter is not self._active_meter:
            warnings.warn(
                "nested AnalysisSession.query() scope passed its own budget "
                "meter; the outer scope's meter stays in effect and the "
                "nested one is ignored",
                UserWarning,
                stacklevel=3,
            )
        current = self._current
        assert current is not None
        try:
            yield current
        finally:
            self._query_depth -= 1
            if self._query_depth == 0:
                for evaluator in self._tiers.evaluators:
                    evaluator.meter = None
                self._active_meter = None
                steps = sum(e.steps for e in self._tiers.evaluators) - self._steps_at_begin
                current.eval_steps += steps
                self.stats.eval_steps += steps
                current.worklist_evals += steps
                self.stats.worklist_evals += steps
                self.stats.last_query = current
                self._current = None
                obs.emit(
                    "query_stats",
                    solve_hits=current.solve_hits,
                    solve_misses=current.solve_misses,
                    scc_hits=current.scc_hits,
                    scc_misses=current.scc_misses,
                    iterations=current.iterations,
                    eval_steps=current.eval_steps,
                    store_hits=current.store_hits,
                    store_misses=current.store_misses,
                    store_writes=current.store_writes,
                    worklist_evals=current.worklist_evals,
                )

    def _new_evaluator(self, chain: BeChain) -> WorklistEvaluator:
        evaluator = WorklistEvaluator(
            chain, max_iterations=self.max_iterations, meter=self._active_meter
        )
        self._tiers.evaluators.append(evaluator)
        self._sharing.evaluators.append(evaluator)
        return evaluator

    def _tally(self, **deltas: int) -> None:
        for target in (self.stats, self._current):
            if target is None:
                continue
            for name, delta in deltas.items():
                setattr(target, name, getattr(target, name) + delta)

    def sharing_classes(self) -> dict[str, frozenset[str]]:
        """May-share name classes from the worklist evaluators' union-find
        partitions, merged across every solve this session ran.

        Merging re-unions each evaluator's classes into one fresh
        partition, so the result stays a genuine partition (transitively
        closed) even when different evaluators grouped overlapping names
        differently."""
        merged = AliasPartition()
        sources = [e.sharing_classes() for e in self._sharing.evaluators]
        for classes in sources + self._sharing.scc_classes:
            for name, names in classes.items():
                merged.union(("name", name), *(("name", n) for n in names))
        return merged.name_classes()

    # -- solving -----------------------------------------------------------

    def solve(self, pins: dict[str, Type] | None = None) -> SolvedProgram:
        """The solved program at ``pins`` — cached across queries."""
        if self._active_meter is not None:
            self._active_meter.check_deadline()
        key = (
            self.program_fingerprint,
            pins_fingerprint(pins),
            self.d_override,
            self.max_iterations,
        )
        cached = self._tiers.solves.get(key)
        if cached is not None:
            self._tally(solve_hits=1)
            obs.emit("solve", cache="hit", pins=sorted(pins) if pins else [])
            return cached
        self._tally(solve_misses=1)
        obs.emit("solve", cache="miss", pins=sorted(pins) if pins else [])
        with obs.span("solve"):
            if pins:
                solved = self._solve_program(clone_program(self.program), pins)
            else:
                # Re-inferring a clone would reproduce the base inference.
                solved = self._solve_program(
                    self._base_clone, None, self._base_inference
                )
        self._tiers.solves[key] = solved
        return solved

    def solve_call(
        self, expr
    ) -> tuple[SolvedProgram, EscapeValue, str]:
        """Solve the program extended with call body ``expr`` (the local
        test's variant), isolated from both the caller's AST and the
        session program.

        Returns the solved variant, the abstract value of the call's head,
        and a display label.  When the head is a top-level function the
        solve is pinned to the monotype instance the call uses (discovered
        by a first inference pass over the private clone, cf. §4.2).

        The answer is cached under ``(program_fp, call_fp, d,
        max_iterations)``: the variant is a function of the program and
        the call alone, so any session of the family that asks the same
        local test again, on a program with the same fingerprint, skips
        both inferences and the solve.
        """
        if self._active_meter is not None:
            self._active_meter.check_deadline()
        key = (
            self.program_fingerprint,
            expr_fingerprint(expr),
            self.d_override,
            self.max_iterations,
        )
        cached = self._tiers.calls.get(key)
        if cached is not None:
            return cached
        head, _ = uncurry_app(expr)
        variant = Program(
            letrec=Letrec(bindings=self.program.bindings, body=expr),
            source=self.program.source,
        )
        work = clone_program(variant)
        with obs.span("solve_call"):
            if isinstance(head, Var) and head.name in self.program.binding_names():
                infer_program(work)
                work_head, _ = uncurry_app(work.body)
                assert work_head.ty is not None
                solved = self._solve_program(work, pins={head.name: work_head.ty})
                answer = (solved, solved.env[head.name], head.name)
            else:
                solved = self._solve_program(work, pins=None)
                solved_head, _ = uncurry_app(solved.program.body)
                answer = (
                    solved,
                    solved.evaluator.eval(solved_head, solved.env),
                    "<expr>",
                )
        self._tiers.calls[key] = answer
        return answer

    def _solve_program(
        self,
        program: Program,
        pins: dict[str, Type] | None,
        inference: InferenceResult | None = None,
    ) -> SolvedProgram:
        """Infer ``program`` (a session-private clone, mutated in place)
        with ``pins`` — unless its ``inference`` is already given — and
        solve its letrec fixpoint per SCC."""
        if inference is None:
            inference = infer_program(program, pins=pins)
        d = (
            self.d_override
            if self.d_override is not None
            else program_spine_bound(program)
        )
        chain = BeChain(d)
        evaluator = self._new_evaluator(chain)
        env, traces, scc_iterates, scc_digests, liveness = self._solve_sccs(
            program, d, chain
        )
        return SolvedProgram(
            inference=inference,
            evaluator=evaluator,
            env=env,
            d=d,
            program=program,
            traces=traces,
            scc_iterates=scc_iterates,
            scc_digests=scc_digests,
            liveness=liveness,
        )

    def _solve_sccs(
        self, program: Program, d: int, chain: BeChain
    ) -> tuple[
        AbsEnv,
        list[FixpointTrace],
        dict[str, list[AbsEnv]],
        dict[str, str],
        dict[str, dict],
    ]:
        if self._tiers.node_index is not None:
            self._tiers.node_index.add_program(program)
        env: AbsEnv = {}
        #: decoded heap-liveness summaries of every binding solved so far
        #: (the dependency scope for later SCCs' summaries)
        liveness_env: dict[str, LivenessSummary] = {}
        #: the encoded form, accumulated for :attr:`SolvedProgram.liveness`
        liveness_out: dict[str, dict] = {}
        #: binding name -> digest of the component that solved it
        provenance: dict[str, str] = {}
        #: binding name -> every name in its transitive dependency cone
        #: (itself and its component included) — the namespace a stored
        #: entry's environment references may draw from
        transitive: dict[str, frozenset[str]] = {}
        traces: list[FixpointTrace] = []
        scc_iterates: dict[str, list[AbsEnv]] = {}
        for scc in binding_sccs(program.letrec):
            dep_names = sorted(scc.dependencies)
            digest = scc_digest(
                bindings_fingerprint(scc.bindings, include_types=True),
                d,
                self.max_iterations,
                {name: provenance[name] for name in dep_names},
            )
            closure = frozenset(scc.names).union(
                *(transitive[name] for name in dep_names)
            )
            entry = self._tiers.sccs.get(digest)
            if entry is not None:
                self._tally(scc_hits=1)
                obs.emit(
                    "scc_solve_finish",
                    names=list(scc.names),
                    cache="hit",
                    iterations=0,
                )
            else:
                entry = self._store_read(digest, scc.names, program, env, chain)
                if entry is not None:
                    self._tiers.sccs[digest] = entry
                    self._tally(scc_hits=1, store_hits=1)
                    obs.emit(
                        "scc_solve_finish",
                        names=list(scc.names),
                        cache="hit",
                        iterations=0,
                    )
                else:
                    self._tally(scc_misses=1)
                    obs.emit("scc_solve_start", names=list(scc.names))
                    with obs.span("scc_solve", names=list(scc.names)):
                        scc_evaluator = self._new_evaluator(chain)
                        knot = Letrec(bindings=scc.bindings, body=program.body)
                        solved_env = scc_evaluator.solve_bindings(knot, env)
                        classes = scc_evaluator.sharing_classes()
                        try:
                            summaries = summarize_scc(
                                scc.bindings, dict(liveness_env), cap=d + 1
                            )
                            scc_liveness = {
                                name: encode_summary(summary)
                                for name, summary in sorted(summaries.items())
                            }
                        except Exception:
                            # No summary beats a wrong one: consumers treat
                            # the missing entry as ⊤ (degraded facts).
                            scc_liveness = {}
                        entry = _SCCEntry(
                            values={name: solved_env[name] for name in scc.names},
                            traces=list(scc_evaluator.traces),
                            iterates=[dict(it) for it in scc_evaluator.iterates],
                            base_env={name: env[name] for name in dep_names},
                            iterations=max(0, len(scc_evaluator.iterates) - 1),
                            sharing={
                                name: sorted(members)
                                for name, members in classes.items()
                            },
                            liveness=scc_liveness,
                        )
                    self._tiers.sccs[digest] = entry
                    self._tally(iterations=entry.iterations)
                    obs.emit(
                        "scc_solve_finish",
                        names=list(scc.names),
                        cache="miss",
                        iterations=entry.iterations,
                    )
                    self._store_write(digest, scc.names, entry, env, closure)
            if entry.sharing:
                self._sharing.scc_classes.append(entry.sharing)
            for name, payload in sorted(entry.liveness.items()):
                try:
                    liveness_env[name] = decode_summary(payload)
                except Exception:
                    continue
                liveness_out[name] = payload
            for name in scc.names:
                env[name] = entry.values[name]
                provenance[name] = digest
                transitive[name] = closure
                scc_iterates[name] = [
                    {**entry.base_env, **iterate} for iterate in entry.iterates
                ]
            traces.extend(entry.traces)
        order = {name: i for i, name in enumerate(program.binding_names())}
        traces.sort(key=lambda t: order[t.name])
        return env, traces, scc_iterates, provenance, liveness_out

    # -- the on-disk tier ---------------------------------------------------

    def _store_read(
        self,
        digest: str,
        names,
        program: Program,
        env: AbsEnv,
        chain: BeChain,
    ) -> _SCCEntry | None:
        """Read-through: a stored fixpoint for ``digest``, decoded against
        this solve's program clone and already-solved environment, or
        ``None`` (no store, absent, corrupt, or undecodable — all of which
        fall back to a re-solve).  Decoding performs no abstract evaluation,
        so a store hit ticks no budget meter.
        """
        if self.store is None:
            return None
        payload = self.store.read(digest)
        if payload is not None:
            try:
                decoded = decode_entry(
                    payload, program, env, self._new_evaluator(chain)
                )
                entry = _SCCEntry(
                    values=decoded["values"],
                    traces=decoded["traces"],
                    iterates=decoded["iterates"],
                    base_env=decoded["base_env"],
                    iterations=decoded["iterations"],
                    sharing=decoded["sharing"],
                    liveness=decoded["liveness"],
                )
            except SerializationError:
                payload = None
            else:
                self.store.note_hit()
                obs.emit("store_hit", digest=digest, names=list(names))
                return entry
        self._tally(store_misses=1)
        self.store.note_miss()
        obs.emit("store_miss", digest=digest, names=list(names))
        return None

    def _store_write(
        self,
        digest: str,
        names,
        entry: _SCCEntry,
        env: AbsEnv,
        closure: frozenset[str],
    ) -> None:
        """Write-behind: persist a freshly solved fixpoint.  Environment
        references are restricted to the component's transitive dependency
        cone — exactly the names the digest chain pins — and any failure
        (unserializable value, storage error) skips the write silently:
        persistence is warmth, never correctness.
        """
        if self.store is None:
            return
        assert self._tiers.node_index is not None
        dep_closure = sorted(closure - frozenset(names))
        env_names = {
            id(env[name]): name for name in dep_closure if name in env
        }
        try:
            payload = encode_entry(
                entry.values,
                entry.traces,
                entry.iterates,
                entry.base_env,
                entry.iterations,
                self._tiers.node_index,
                env_names,
                sharing=entry.sharing,
                liveness=entry.liveness,
            )
        except SerializationError:
            return
        if self.store.write(digest, payload):
            self._tally(store_writes=1)
            self.store.note_write()
            obs.emit("store_write", digest=digest, names=list(names))

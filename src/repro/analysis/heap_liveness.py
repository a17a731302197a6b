"""Interprocedural heap liveness over the flat IR.

Where the escape lattice answers *where may this cell flow*, heap liveness
answers *can this cell still be read* — per binding, per spine level.  The
analysis is a demand-driven backward pass in the spirit of Karkare et
al.'s access-path liveness (PAPERS.md: *Liveness of Heap Data* / *Heap
Reference Analysis for Functional Programs*), specialized to the paper's
car/cdr spine structure:

* The domain is the **live-depth lattice** ``0 ⊑ 1 ⊑ … ⊑ cap ⊑ ⊤``: a
  demand of ``k`` on a list value means reads may reach spine levels
  ``0..k-1`` and no deeper; ``0`` means the heap data is never read at
  all (the reference may still be compared against ``nil``); ``⊤`` means
  unbounded.  A depth ``k`` denotes exactly the Karkare access paths
  ``(d* a){<k} d*`` — every path with fewer than ``k`` ``car`` steps.
* Transfer functions run **backward** over :class:`repro.ir.nodes.Block`
  instructions (operands precede users, so one reverse sweep per block
  suffices): ``car`` converts a demand ``D`` on its result into
  ``max(1, D+1)`` on its argument, ``cdr`` into ``max(1, D)``, ``cons``
  splits ``D`` into ``D-1``/``D`` for head/tail, ``null`` and the integer
  primitives demand nothing, and anything the spine model cannot express
  (tuples, unknown call targets) degrades to ``⊤``.
* **Interprocedural** facts are per-function summaries — one live depth
  per parameter, computed under ``⊤`` result demand so they are sound at
  every call site — solved callees-first over the same Tarjan SCCs the
  escape engine schedules (:func:`repro.escape.scc.binding_sccs`), each
  SCC by a worklist iterated to fixpoint with widening to ``⊤`` on budget
  exhaustion.  :class:`~repro.query.AnalysisSession` memoizes the
  summaries per SCC through the :class:`~repro.store.AnalysisStore`
  (serialization codec 3).

The exported facts feed three consumers: the liveness-directed collector
(:mod:`repro.semantics.gc` marks with per-name budgets and reclaims
dead-but-reachable cells), the optimization auditor (interprocedural
justification for AUD004), and ``repro diff`` artifacts (a canonical
per-binding liveness section gating precision regressions).

Soundness of the name-keyed :meth:`HeapLivenessFacts.budget_map`: every
runtime read of heap data starts at a syntactic ``load`` of some binder
(letrec binding, parameter — including reads performed later by a closure
that captured the binder), and every ``load``'s demand is joined into the
binder's global depth, across *all* scopes sharing the name.  Values not
yet bound to a name (mid-evaluation temporaries) are GC temp roots and
marked unbounded.  Any analysis failure degrades to an empty map — all
names unbounded — which is exactly full-reachability marking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, runtime_checkable

from repro.escape.scc import binding_sccs
from repro.ir.lower import lower_expr
from repro.ir.nodes import Block, Instr
from repro.lang.ast import Binding, Lambda, Letrec, Program, walk

__all__ = [
    "TOP",
    "LivenessSummary",
    "HeapLivenessFacts",
    "LivenessResults",
    "LivenessBudgetExceeded",
    "analyze_program",
    "summarize_scc",
    "facts_from_summaries",
    "donor_live_after",
    "encode_summary",
    "decode_summary",
    "encode_depth",
    "decode_depth",
    "render_paths",
]

#: The unbounded live depth (every access path may be read).
TOP = None

#: Depth cap when the program gives us no better bound: depths beyond the
#: cap widen to ``⊤``, which keeps the lattice finite and the fixpoint
#: terminating without losing the distinctions the collector acts on.
DEFAULT_CAP = 8

#: Transfer-step budget for one whole-program analysis; exhaustion widens
#: to ``⊤`` (degraded, sound) instead of running away.
DEFAULT_MAX_STEPS = 500_000

#: Primitives that read or write nothing on the heap (integer/bool ops and
#: the ``null`` test, which is a constructor check, not a cell read).
_FLAT_PRIMS = frozenset(
    {"+", "-", "*", "/", "==", "<>", "<", "<=", ">", ">=", "null"}
)

_PRIM_ARITY = {
    "+": 2, "-": 2, "*": 2, "/": 2,
    "==": 2, "<>": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
    "cons": 2, "car": 1, "cdr": 1, "null": 1, "dcons": 3,
    "mkpair": 2, "fst": 1, "snd": 1,
}


class LivenessBudgetExceeded(Exception):
    """The analysis ran out of its step budget; callers degrade to ``⊤``."""


def _join(a: "int | None", b: "int | None") -> "int | None":
    if a is None or b is None:
        return None
    return max(a, b)


def _dec(d: "int | None") -> "int | None":
    if d is None:
        return None
    return max(0, d - 1)


def _inc(d: "int | None", cap: int) -> "int | None":
    if d is None or d + 1 > cap:
        return None
    return d + 1


def encode_depth(d: "int | None") -> "int | str":
    return "top" if d is None else int(d)


def decode_depth(raw: "int | str") -> "int | None":
    if raw == "top":
        return None
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 0:
        raise ValueError(f"bad live depth {raw!r}")
    return raw


def render_paths(d: "int | None") -> str:
    """The Karkare-style access-path set a live depth denotes."""
    if d is None:
        return "(a+d)*"
    if d == 0:
        return "∅"
    if d == 1:
        return "d*"
    return f"d* (a d*){{<{d - 1}}} a? d*" if d == 2 else f"d* (a d*){{<{d}}}"


@dataclass(frozen=True)
class LivenessSummary:
    """One binding's liveness facts.

    ``params`` — live depth per parameter under unbounded result demand
    (``None`` when the binding is not a syntactic lambda chain, in which
    case call sites degrade to ``⊤``).  ``names`` — every environment
    name the binding's evaluation may demand, with its joined depth;
    this includes the binding's own locals (parameters, nested letrec
    names), which is what makes the global budget map name-complete.
    """

    params: "tuple[int | None, ...] | None"
    names: "tuple[tuple[str, int | None], ...]"


def encode_summary(summary: LivenessSummary) -> dict:
    return {
        "params": (
            None
            if summary.params is None
            else [encode_depth(p) for p in summary.params]
        ),
        "names": {name: encode_depth(d) for name, d in summary.names},
    }


def decode_summary(payload: dict) -> LivenessSummary:
    params = payload["params"]
    names = payload["names"]
    return LivenessSummary(
        params=(
            None if params is None else tuple(decode_depth(p) for p in params)
        ),
        names=tuple(
            (str(name), decode_depth(d)) for name, d in sorted(names.items())
        ),
    )


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise LivenessBudgetExceeded("liveness step budget exhausted")


def _block_loads(block: Block) -> frozenset[str]:
    """Every name loaded anywhere in ``block``, nested blocks included."""
    out: set[str] = set()
    stack = [block]
    while stack:
        b = stack.pop()
        for ins in b.instrs:
            if ins.op == "load":
                out.add(ins.name)
            stack.extend(ins.blocks)
    return frozenset(out)


def _peel_params(block: Block) -> "list[str] | None":
    """Parameter names of a lambda-chain binding (``f = λx.λy. …``)."""
    names: list[str] = []
    b = block
    while b.instrs and b.instrs[b.result].op == "close":
        ins = b.instrs[b.result]
        names.append(ins.param)
        b = ins.blocks[0]
    return names if names else None


class _Analyzer:
    """One backward demand pass over a binding's blocks.

    ``demands`` accumulates (by join) the live depth demanded of every
    environment name the pass encounters; closure bodies are analyzed
    once under ``⊤`` result demand (a closure may be applied anywhere,
    any later, with its result fully used), nested letrecs get their own
    worklist fixpoint.
    """

    def __init__(
        self,
        scope: "Mapping[str, LivenessSummary]",
        cap: int,
        budget: _Budget,
    ):
        self.scope = dict(scope)
        self.cap = cap
        self.budget = budget
        self.demands: dict[str, int | None] = {}
        self._closed: set[int] = set()

    def record(self, name: str, depth: "int | None") -> None:
        self.demands[name] = _join(self.demands.get(name, 0), depth)

    def run_block(self, block: Block, demand: "int | None") -> list:
        n = len(block.instrs)
        if n == 0:
            return []
        d: list[int | None] = [0] * n
        d[block.result] = demand
        for i in range(n - 1, -1, -1):
            self.budget.spend()
            ins = block.instrs[i]
            di = d[i]
            op = ins.op
            if op == "load":
                self.record(ins.name, di)
            elif op == "branch":
                _cond, then, otherwise = ins.operands
                d[then] = _join(d[then], di)
                d[otherwise] = _join(d[otherwise], di)
            elif op == "close":
                self._close_body(ins)
            elif op == "apply":
                if not self._is_inner_apply(block, i):
                    self._apply_chain(block, i, d)
            elif op == "enter":
                self._enter(ins, di)
            # const / prim produce no demands of their own
        return d

    # -- helpers -----------------------------------------------------------

    def _close_body(self, ins: Instr) -> None:
        """Analyze a closure body (once) under unbounded result demand."""
        key = id(ins)
        if key in self._closed:
            return
        self._closed.add(key)
        self.run_block(ins.blocks[0], TOP)

    def _is_inner_apply(self, block: Block, i: int) -> bool:
        """True when instruction ``i`` is the ``fn`` operand of another
        apply — the outermost apply of the chain handles the whole spine
        (the IR is tree-shaped, so each apply has at most one user)."""
        for user in block.users[i]:
            ins = block.instrs[user]
            if ins.op == "apply" and ins.operands[0] == i:
                return True
        return False

    def _apply_chain(self, block: Block, i: int, d: list) -> None:
        args: list[int] = []
        idx = i
        while block.instrs[idx].op == "apply":
            fn_idx, arg_idx = block.instrs[idx].operands
            args.append(arg_idx)
            idx = fn_idx
        args.reverse()
        head = block.instrs[idx]
        di = d[i]

        if head.op == "prim":
            self._prim_args(head.node.name, args, di, d)
            return
        if head.op == "close":
            # Immediate beta-redex: the k-th argument is demanded at the
            # k-th peeled parameter's accumulated depth.
            self._close_body(head)
            params: list[str] = []
            cur: Instr | None = head
            while cur is not None and cur.op == "close":
                params.append(cur.param)
                body = cur.blocks[0]
                res = body.instrs[body.result] if body.instrs else None
                cur = res if res is not None and res.op == "close" else None
            for k, arg in enumerate(args):
                if k < len(params):
                    d[arg] = _join(d[arg], self.demands.get(params[k], 0))
                else:
                    d[arg] = TOP
            return
        if head.op == "load":
            summary = self.scope.get(head.name)
            if (
                summary is not None
                and summary.params is not None
                and len(args) <= len(summary.params)
            ):
                for k, arg in enumerate(args):
                    d[arg] = _join(d[arg], summary.params[k])
                return
        # Unknown or over-applied head: everything may be read fully.
        d[idx] = TOP
        for arg in args:
            d[arg] = TOP

    def _prim_args(self, name: str, args: list, di, d: list) -> None:
        arity = _PRIM_ARITY.get(name)
        if arity is None or len(args) != arity:
            # Unknown prim or a partial application escaping as a value:
            # its captured arguments may be demanded fully wherever it is
            # eventually saturated.
            for arg in args:
                d[arg] = TOP
            return
        if name in _FLAT_PRIMS:
            return  # no heap reads (``null`` is an isinstance check)
        if name == "cons":
            d[args[0]] = _join(d[args[0]], _dec(di))
            d[args[1]] = _join(d[args[1]], di)
        elif name == "car":
            # Executes eagerly: the top cell is read even at demand 0, and
            # the element is one spine level below the result demand.
            d[args[0]] = _join(d[args[0]], _join(1, _inc(di, self.cap)))
        elif name == "cdr":
            d[args[0]] = _join(d[args[0]], _join(1, di))
        elif name == "dcons":
            # The donor's top cell is read (and recycled) at the reuse
            # site; the new head/tail behave like cons.
            d[args[0]] = _join(d[args[0]], 1)
            d[args[1]] = _join(d[args[1]], _dec(di))
            d[args[2]] = _join(d[args[2]], di)
        else:
            # mkpair / fst / snd: tuples have no spine structure, so the
            # depth domain cannot track their contents — degrade.
            for arg in args:
                d[arg] = TOP

    def _enter(self, ins: Instr, di) -> None:
        nested = dict(zip(ins.names, ins.blocks[:-1]))
        summaries = _fix_letrec(nested, self.scope, self.cap, self.budget)
        for summary in summaries.values():
            for name, depth in summary.names:
                self.record(name, depth)
        saved = self.scope
        self.scope = {**saved, **summaries}
        try:
            self.run_block(ins.blocks[-1], di)
        finally:
            self.scope = saved


def _binding_summary(
    block: Block,
    scope: "Mapping[str, LivenessSummary]",
    cap: int,
    budget: _Budget,
) -> LivenessSummary:
    analyzer = _Analyzer(scope, cap, budget)
    analyzer.run_block(block, TOP)
    peeled = _peel_params(block)
    params = (
        None
        if peeled is None
        else tuple(analyzer.demands.get(p, 0) for p in peeled)
    )
    return LivenessSummary(
        params=params,
        names=tuple(sorted(analyzer.demands.items(), key=lambda kv: kv[0])),
    )


def _top_summary(block: Block) -> LivenessSummary:
    """The sound worst case for one binding: every parameter and every
    name it could ever load demanded at ``⊤``."""
    peeled = _peel_params(block)
    return LivenessSummary(
        params=None if peeled is None else tuple(TOP for _ in peeled),
        names=tuple((name, TOP) for name in sorted(_block_loads(block))),
    )


def _fix_letrec(
    blocks: "Mapping[str, Block]",
    scope: "Mapping[str, LivenessSummary]",
    cap: int,
    budget: _Budget,
) -> dict[str, LivenessSummary]:
    """Worklist fixpoint over one letrec's (or one SCC's) bindings.

    Summaries start at ⊥ and only grow (every transfer is monotone and
    the capped depth lattice is finite), so the deque converges; the step
    budget is the backstop, widening everything to ``⊤`` on exhaustion.
    """
    names = sorted(blocks)
    summaries: dict[str, LivenessSummary] = {
        name: LivenessSummary(
            params=(
                None
                if (peeled := _peel_params(blocks[name])) is None
                else tuple(0 for _ in peeled)
            ),
            names=(),
        )
        for name in names
    }
    loads = {name: _block_loads(blocks[name]) for name in names}
    dependents = {
        name: tuple(m for m in names if name in loads[m]) for name in names
    }
    work = deque(names)
    queued = set(names)
    try:
        while work:
            name = work.popleft()
            queued.discard(name)
            merged = {**dict(scope), **summaries}
            updated = _binding_summary(blocks[name], merged, cap, budget)
            if updated != summaries[name]:
                summaries[name] = updated
                for dependent in dependents[name]:
                    if dependent not in queued:
                        work.append(dependent)
                        queued.add(dependent)
    except LivenessBudgetExceeded:
        return {name: _top_summary(blocks[name]) for name in names}
    return summaries


# -- program-level entry points ---------------------------------------------


def summarize_scc(
    bindings: "Iterable[Binding]",
    dependencies: "Mapping[str, LivenessSummary]",
    cap: int = DEFAULT_CAP,
    budget: "_Budget | None" = None,
) -> dict[str, LivenessSummary]:
    """Summarize one SCC's bindings given its dependencies' summaries.

    This is the unit :class:`~repro.query.AnalysisSession` memoizes per
    SCC digest; two programs whose typed bindings and analysis inputs
    agree share the stored summaries like they share lattice values.
    """
    blocks = {
        b.name: lower_expr(b.expr, label=f"live.{b.name}") for b in bindings
    }
    return _fix_letrec(
        blocks, dependencies, cap, budget or _Budget(DEFAULT_MAX_STEPS)
    )


def _binder_names(program: Program) -> frozenset[str]:
    names: set[str] = set(program.binding_names())
    for node in walk(program.letrec):
        if isinstance(node, Lambda):
            names.add(node.param)
        elif isinstance(node, Letrec):
            names.update(node.binding_names())
    return frozenset(names)


@runtime_checkable
class LivenessResults(Protocol):
    """The ``EscapeResults``-style read side of the liveness facts."""

    engine: str
    degraded: bool

    def binding_fact(self, name: str) -> "LivenessSummary | None": ...

    def use_depth(self, name: str) -> "int | None": ...

    def budget_map(self) -> "dict[str, int | None]": ...

    def access_paths(self, name: str) -> str: ...


class HeapLivenessFacts:
    """Whole-program heap-liveness facts (implements
    :class:`LivenessResults`).

    ``use_depth(name)`` is the joined live depth of binder ``name``
    across every scope that reads it; ``budget_map()`` is the collector's
    view — one entry per binder, ``None`` meaning unbounded.  A degraded
    instance (analysis failure or budget exhaustion) answers ``⊤`` for
    everything and exports an empty budget map, which the collector
    treats as full-reachability marking.
    """

    engine = "heap-liveness"

    def __init__(
        self,
        cap: int,
        summaries: "Mapping[str, LivenessSummary]",
        body: "Mapping[str, int | None]",
        binders: frozenset[str],
        degraded: bool = False,
    ):
        self.cap = cap
        self.summaries = dict(summaries)
        self.body = dict(body)
        self.binders = binders
        self.degraded = degraded
        merged: dict[str, int | None] = dict(body)
        for summary in self.summaries.values():
            for name, depth in summary.names:
                merged[name] = _join(merged.get(name, 0), depth)
        self._merged = merged

    def binding_fact(self, name: str) -> "LivenessSummary | None":
        return self.summaries.get(name)

    def use_depth(self, name: str) -> "int | None":
        if self.degraded:
            return TOP
        if name in self._merged:
            return self._merged[name]
        # A binder no scope ever loads is dead-after-bind; anything else
        # (a name we never saw) is unbounded.
        return 0 if name in self.binders else TOP

    def budget_map(self) -> "dict[str, int | None]":
        if self.degraded:
            return {}
        return {name: self.use_depth(name) for name in sorted(self.binders)}

    def access_paths(self, name: str) -> str:
        return render_paths(self.use_depth(name))

    def to_json(self) -> dict:
        """Canonical (sorted, hash-seed-independent) artifact section."""
        return {
            "cap": self.cap,
            "degraded": self.degraded,
            "bindings": {
                name: encode_summary(summary)
                for name, summary in sorted(self.summaries.items())
            },
            "use": {
                name: encode_depth(depth)
                for name, depth in sorted(self.budget_map().items())
            },
        }


def degraded_facts(program: Program, cap: int = DEFAULT_CAP) -> HeapLivenessFacts:
    try:
        binders = _binder_names(program)
    except Exception:
        binders = frozenset()
    return HeapLivenessFacts(
        cap=cap, summaries={}, body={}, binders=binders, degraded=True
    )


def facts_from_summaries(
    program: Program,
    summaries: "Mapping[str, LivenessSummary]",
    cap: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> HeapLivenessFacts:
    """Assemble program facts from per-binding summaries (session path).

    Missing summaries mean a binding's reads are unaccounted for, so the
    only sound answer is the degraded one.
    """
    names = set(program.binding_names())
    if not names <= set(summaries):
        return degraded_facts(program, cap)
    try:
        budget = _Budget(max_steps)
        analyzer = _Analyzer(summaries, cap, budget)
        analyzer.run_block(lower_expr(program.body, label="live.$body"), TOP)
        return HeapLivenessFacts(
            cap=cap,
            summaries=summaries,
            body=dict(analyzer.demands),
            binders=_binder_names(program),
        )
    except Exception:
        return degraded_facts(program, cap)


def analyze_program(
    program: Program,
    cap: "int | None" = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> HeapLivenessFacts:
    """Standalone whole-program analysis (no session, no store).

    Never raises: any failure — unloadable construct, budget exhaustion —
    returns degraded facts whose budget map is empty (all ``⊤``).
    """
    if cap is None:
        cap = DEFAULT_CAP
    try:
        budget = _Budget(max_steps)
        scope: dict[str, LivenessSummary] = {}
        for scc in binding_sccs(program.letrec):
            scope.update(
                summarize_scc(scc.bindings, dict(scope), cap, budget)
            )
        return facts_from_summaries(program, scope, cap, max_steps)
    except Exception:
        return degraded_facts(program, cap)


def donor_live_after(
    program: Program,
    function: str,
    site_uid: int,
    donor: str,
    facts: "HeapLivenessFacts | None" = None,
) -> "bool | None":
    """Interprocedural sharpening of ``var_used_after`` for AUD004.

    ``False`` — the donor's heap data is provably dead past the reuse
    site on every path: every later syntactic use demands depth 0 (e.g. a
    ``null`` test, or passing the donor to a function whose summary never
    reads that parameter's cells).  ``True`` — some later use may read a
    cell.  ``None`` — the site is out of this helper's reach (nested
    lambda, degraded facts); callers keep the conservative answer.
    """
    if facts is None or facts.degraded:
        return None
    try:
        binding = program.binding(function)
    except KeyError:
        return None
    try:
        block = lower_expr(binding.expr, label=f"live.audit.{function}")
    except Exception:
        return None
    # Peel the lambda chain down to the function body block.
    body = block
    while body.instrs and body.instrs[body.result].op == "close":
        body = body.instrs[body.result].blocks[0]
    site_idx = next(
        (i for i, ins in enumerate(body.instrs) if ins.node.uid == site_uid),
        None,
    )
    if site_idx is None:
        return None
    # A closure or nested letrec loading the donor may run at any time
    # after the reuse — conservatively live (parity with the lambda rule
    # of the intra-procedural pass).
    for ins in body.instrs:
        for nested in ins.blocks:
            if donor in _block_loads(nested):
                return True
    try:
        analyzer = _Analyzer(facts.summaries, facts.cap, _Budget(DEFAULT_MAX_STEPS))
        demands = analyzer.run_block(body, TOP)
    except Exception:
        return None
    # Flat blocks evaluate in index order, so instructions after the site
    # are the continuation (branch arms of the *other* path land here too,
    # which only errs toward liveness).
    for i in range(site_idx + 1, len(body.instrs)):
        ins = body.instrs[i]
        if ins.op == "load" and ins.name == donor:
            depth = demands[i]
            if depth is None or depth >= 1:
                return True
    return False

"""The worklist fixpoint engine over the flat IR (:mod:`repro.ir`).

This is the analysis's only production evaluator.  It replaces the
AST-walking Kleene iteration of
:class:`~repro.escape.abstract.AbstractEvaluator`, which stays as its base
class and, through :func:`~repro.escape.abstract.kleene_solve`, as the
reference it is tested against.  Same lattice, same transfer functions,
same least fixpoint — the chaotic-iteration theorem guarantees the limit
of a monotone system does not depend on evaluation order, so per-binding
lattice *fingerprints are bit-identical* to the reference's — but the work
is organised around change instead of rounds:

* each letrec binding is lowered once to a :class:`~repro.ir.nodes.Block`
  (one instruction per AST node, explicit def–use edges, per-instruction
  transitive environment-dependency sets);
* a worklist of bindings is seeded in program order; a popped binding is
  re-evaluated and its dependents re-queued only when its fingerprint
  actually changed (a non-self-recursive binding therefore converges after
  a single evaluation — no confirming pass);
* within a binding, instruction results are cached between evaluations and
  only the instructions whose dependency set intersects the changed names
  are re-executed (every re-execution is one *transfer eval*, the unit
  :class:`~repro.query.QueryStats` counts as ``worklist_evals``);
* closure applications are memoized (abstract evaluation is pure), so the
  extensional fingerprint sampling that detects convergence re-applies
  prior-iterate closures at cached points instead of re-running bodies;
* a union-find partition (:class:`AliasPartition`) is grown during the
  same pass: every value-flow edge (load, apply, branch join, closure
  capture) unions the participating storage classes, yielding the may-share
  name classes that bound Theorem-2 sharing facts without a separate walk.

Budget accounting matches the hardened engine's expectations: every
transfer eval ticks ``meter.tick_eval()`` (so ``max_eval_steps`` and
deadlines cut the worklist short) and every binding evaluation ticks
``tick_iteration()`` — a breached budget degrades to ``W^τ``.
"""

from __future__ import annotations

from collections import deque

from repro.escape.abstract import (
    AbsEnv,
    AbstractEvaluator,
    FixpointTrace,
    fingerprint,
)
from repro.escape.domain import BOTTOM, ClosureFun, EscapeValue
from repro.escape.primitives import abstract_prim
from repro.escape.worst import worst_fun
from repro.ir.lower import lower_expr
from repro.ir.nodes import Block, Instr
from repro.lang.ast import Binding, Expr, Letrec
from repro.lang.errors import AnalysisError
from repro.obs import tracer as obs
from repro.robust import faults

__all__ = ["AliasPartition", "WorklistEvaluator"]


class AliasPartition:
    """A union-find partition over storage classes.

    Tokens are hashable labels: ``("name", x)`` for an environment binding,
    ``("v", block_label, index)`` for one instruction's value.  Two tokens
    in the same class *may* share structure (a sound over-approximation:
    fresh constructions start singleton classes, and every value-flow edge
    unions).  Theorem 2 then refines the *top spines* of a class — the
    partition answers "which names can a result possibly share with at
    all", the escape lattice answers "how deep".
    """

    def __init__(self) -> None:
        self._parent: dict = {}

    def _find(self, token):
        parent = self._parent
        root = parent.setdefault(token, token)
        while root != parent[root]:
            root = parent[root]
        while parent[token] != root:  # path compression
            parent[token], token = root, parent[token]
        return root

    def union(self, *tokens) -> None:
        if not tokens:
            return
        roots = [self._find(t) for t in tokens]
        anchor = roots[0]
        for root in roots[1:]:
            if root != anchor:
                self._parent[root] = anchor

    def may_share(self, a, b) -> bool:
        return self._find(a) == self._find(b)

    def class_of(self, token) -> frozenset:
        root = self._find(token)
        return frozenset(t for t in self._parent if self._find(t) == root)

    def name_classes(self) -> dict[str, frozenset[str]]:
        """Per environment name: the set of names it may share with."""
        by_root: dict = {}
        for token in self._parent:
            if isinstance(token, tuple) and token[0] == "name":
                by_root.setdefault(self._find(token), set()).add(token[1])
        return {
            name: frozenset(names)
            for names in by_root.values()
            for name in names
        }


class _BindingState:
    """The per-binding incremental evaluation state of one solve."""

    __slots__ = ("block", "values", "env_seen")

    def __init__(self, block: Block) -> None:
        self.block = block
        #: Cached per-instruction values from the previous evaluation.
        self.values: list[EscapeValue | None] = [None] * len(block.instrs)
        #: The environment values (by identity) the cache was computed at.
        self.env_seen: dict[str, EscapeValue | None] = {}


class WorklistEvaluator(AbstractEvaluator):
    """Evaluates the abstract escape semantics over lowered IR blocks.

    Shares the full public surface of :class:`AbstractEvaluator` (``eval``,
    ``solve_bindings``, ``steps``, ``traces``, ``iterates``, ``memo``,
    ``values_equal``/``value_leq``), so closures, serialization, and the
    escape tests run unchanged on either.  ``steps`` counts *transfer evals* —
    instructions actually executed — the quantity reported as
    ``worklist_evals``.
    """

    def __init__(self, chain, max_iterations=None, meter=None):
        # Memoization is always on: it is what makes the extensional
        # fingerprint sampling cheap enough to run per binding update.
        super().__init__(chain, max_iterations=max_iterations, memoize=True, meter=meter)
        #: Lowered blocks keyed by ``id`` of their source expression (the
        #: expression is retained so the id cannot be recycled).
        self._blocks: dict[int, tuple[Expr, Block]] = {}
        #: Per-block per-instruction execution counts, flushed as
        #: ``transfer_eval`` events at the end of each solve.
        self._costs: dict[Block, dict[int, int]] = {}
        #: Persistent incremental state per block executed through ``eval``
        #: (closure bodies, escape-test probes): consecutive executions of
        #: the same block — fingerprint sampling varies one argument at a
        #: time — re-run only the instructions whose inputs changed.
        self._exec_states: dict[Block, _BindingState] = {}
        #: Blocks currently on the execution stack; a re-entrant execution
        #: (recursion through the same body) runs fresh, without touching
        #: the incremental state of the activation below it.
        self._active: set[Block] = set()
        #: May-share classes grown during evaluation (see AliasPartition).
        self.aliases = AliasPartition()

    # -- lowering ----------------------------------------------------------

    def _register_block(self, expr: Expr, block: Block) -> None:
        self._blocks.setdefault(id(expr), (expr, block))

    def _expr_block(self, expr: Expr, label: str = "<expr>") -> Block:
        hit = self._blocks.get(id(expr))
        if hit is not None:
            return hit[1]
        block = lower_expr(expr, label=label)
        obs.emit("ir_lower", name=label, instructions=block.size())
        self._blocks[id(expr)] = (expr, block)
        return block

    def _binding_block(self, binding: Binding) -> Block:
        hit = self._blocks.get(id(binding.expr))
        if hit is not None:
            return hit[1]
        block = lower_expr(binding.expr, label=binding.name)
        obs.emit(
            "ir_lower",
            name=binding.name,
            instructions=block.size(),
            # Definition site, so `repro explain` can point at the source.
            span=str(binding.span),
        )
        self._blocks[id(binding.expr)] = (binding.expr, block)
        return block

    # -- evaluation --------------------------------------------------------

    def eval(self, expr: Expr, env: AbsEnv) -> EscapeValue:
        """``E⟦expr⟧env`` via the expression's lowered block."""
        return self._exec_block(self._expr_block(expr), env)

    def _exec_block(self, block: Block, env: AbsEnv) -> EscapeValue:
        """Execute ``block`` under ``env``, incrementally when possible.

        The block keeps a persistent instruction-value cache; only the
        instructions whose dependency set intersects the names whose value
        changed since the last execution are re-run (identity comparison —
        the solver keeps the old value object on a stable fingerprint, so
        object identity is exact change detection).  Re-entrant executions
        (the block is already running further up the stack) evaluate fresh.
        """
        if block in self._active:
            values: list[EscapeValue | None] = [None] * len(block.instrs)
            for i, ins in enumerate(block.instrs):
                values[i] = self._exec(block, i, ins, values, env)
            return values[block.result]
        state = self._exec_states.get(block)
        if state is None:
            state = _BindingState(block)
            self._exec_states[block] = state
        self._active.add(block)
        try:
            return self._eval_binding(state, env)
        except BaseException:
            # A partial re-execution (budget breach, injected fault) leaves
            # the cache mixing old and new inputs — drop it entirely.
            state.values = [None] * len(block.instrs)
            state.env_seen = {}
            raise
        finally:
            self._active.discard(block)

    def _eval_binding(self, state: _BindingState, env: AbsEnv) -> EscapeValue:
        """Re-evaluate one binding's block, re-executing only the
        instructions whose environment dependencies changed."""
        block = state.block
        seen = state.env_seen
        changed = {
            name
            for name in block.free_names
            if env.get(name) is not seen.get(name)
        }
        values = state.values
        deps = block.deps
        for i, ins in enumerate(block.instrs):
            if values[i] is not None and not (deps[i] & changed):
                continue
            values[i] = self._exec(block, i, ins, values, env)
        state.env_seen = {name: env.get(name) for name in block.free_names}
        return values[block.result]

    def _exec(
        self,
        block: Block,
        i: int,
        ins: Instr,
        values: list,
        env: AbsEnv,
    ) -> EscapeValue:
        self.steps += 1
        if self.meter is not None:
            self.meter.tick_eval()
        costs = self._costs.setdefault(block, {})
        costs[i] = costs.get(i, 0) + 1
        op = ins.op
        token = ("v", block.label, i)
        if op == "const":
            return BOTTOM
        if op == "prim":
            return abstract_prim(ins.node)
        if op == "load":
            value = env.get(ins.name)
            if value is None:
                raise AnalysisError(
                    f"identifier {ins.name!r} is not in the abstract environment",
                    ins.span,
                )
            self.aliases.union(token, ("name", ins.name))
            return value
        if op == "apply":
            fn_idx, arg_idx = ins.operands
            self.aliases.union(
                token,
                ("v", block.label, fn_idx),
                ("v", block.label, arg_idx),
            )
            return values[fn_idx].apply(values[arg_idx])
        if op == "branch":
            _, then_idx, else_idx = ins.operands
            self.aliases.union(
                token,
                ("v", block.label, then_idx),
                ("v", block.label, else_idx),
            )
            return values[then_idx].join(values[else_idx])
        if op == "close":
            contained = self.chain.bottom
            for name in ins.names:
                bound = env.get(name)
                if bound is None:
                    raise AnalysisError(
                        f"free identifier {name!r} of a lambda is not in the "
                        "abstract environment",
                        ins.span,
                    )
                contained = contained.join(bound.be)
            self.aliases.union(token, *(("name", name) for name in ins.names))
            body = ins.blocks[0]
            # Later applications of the closure go through ``eval`` on the
            # lambda's body node — register the already-lowered block so
            # they reuse it (stable identity, shared cost attribution).
            self._register_block(ins.node.body, body)
            captured = dict(env)
            return EscapeValue(
                contained, ClosureFun(ins.param, ins.node.body, captured, self)
            )
        if op == "enter":
            for binding, nested in zip(ins.node.bindings, ins.blocks[:-1]):
                self._register_block(binding.expr, nested)
            solved = self.solve_bindings(ins.node, env)
            body = ins.blocks[-1]
            result = self._exec_block(body, solved)
            self.aliases.union(token, ("v", body.label, body.result))
            return result
        raise AnalysisError(f"unknown IR opcode {op!r}", ins.span)

    # -- the worklist fixpoint ---------------------------------------------

    def solve_bindings(self, letrec: Letrec, env: AbsEnv) -> AbsEnv:
        """The least fixpoint of the letrec bindings by worklist iteration,
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
        names = [b.name for b in bindings]
        types = {b.name: b.expr.ty for b in bindings}
        states = {b.name: _BindingState(self._binding_block(b)) for b in bindings}
        #: Intra-knot def–use edges: who must re-run when ``n`` changes.
        dependents = {
            n: tuple(m for m in names if n in states[m].block.free_names)
            for n in names
        }
        traces = {b.name: FixpointTrace(b.name) for b in bindings}
        self.traces.extend(traces.values())

        current: AbsEnv = {name: BOTTOM for name in names}
        fps = {name: fingerprint(BOTTOM, types[name], self.chain) for name in names}
        iterates: list[AbsEnv] = [dict(current)]
        tracing = obs.tracing()

        queue = deque(names)
        queued = set(names)
        evals = {name: 0 for name in names}
        widened = False
        while queue:
            name = queue.popleft()
            queued.discard(name)
            if tracing is not None:
                tracing.emit("worklist_pop", name=name)
            if evals[name] >= cap:
                widened = True
                break
            evals[name] += 1
            if self.meter is not None:
                self.meter.tick_iteration()
            iter_env = {**env, **current}
            new_value = self._eval_binding(states[name], iter_env)
            new_fp = fingerprint(new_value, types[name], self.chain)
            traces[name].fingerprints.append(new_fp)
            if tracing is not None:
                tracing.emit(
                    "fixpoint_iteration",
                    iteration=evals[name],
                    values={name: str(new_fp)},
                )
            if new_fp != fps[name]:
                # The value rose: install it and re-queue the dependents.
                # (On a stable fingerprint the *old* object is kept, so
                # identity comparison doubles as change detection and the
                # memo keeps serving the previous iterate's applications.)
                current[name] = new_value
                fps[name] = new_fp
                iterates.append(dict(current))
                for dependent in dependents[name]:
                    if dependent not in queued:
                        queue.append(dependent)
                        queued.add(dependent)
                        if tracing is not None:
                            tracing.emit("worklist_push", name=dependent)
            else:
                iterates.append(dict(current))

        if widened:
            # Safety net, same as the reference: widen to the worst case.
            for binding in bindings:
                current[binding.name] = EscapeValue(
                    self.chain.top, worst_fun(binding.expr.ty)
                )
                traces[binding.name].widened = True
            if tracing is not None:
                tracing.emit("fixpoint_widened", names=names, cap=cap)
        else:
            for trace in traces.values():
                trace.converged = True
            if tracing is not None:
                tracing.emit(
                    "fixpoint_converged",
                    names=names,
                    iterations=max(evals.values()) if evals else 0,
                )

        self.iterates = iterates
        for name in names:
            block = states[name].block
            self.aliases.union(("name", name), ("v", block.label, block.result))
        self._flush_costs(tracing)
        return {**env, **current}

    def _flush_costs(self, tracing) -> None:
        """Emit cumulative per-instruction ``transfer_eval`` events."""
        if tracing is not None:
            for block, counts in self._costs.items():
                for index in sorted(counts):
                    tracing.emit(
                        "transfer_eval",
                        block=block.label,
                        index=index,
                        op=block.instrs[index].op,
                        count=counts[index],
                    )
        self._costs.clear()

    # -- sharing -----------------------------------------------------------

    def sharing_classes(self) -> dict[str, frozenset[str]]:
        """Per binding name: the names its value may share structure with
        (the union-find classes grown during this evaluator's pass)."""
        return self.aliases.name_classes()

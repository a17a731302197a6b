"""The collector zoo: pluggable garbage collectors over the instrumented heap.

The collectors exist to make the paper's cost claims measurable:
``gc_marked`` counts the cells the mark phase traverses, which is exactly
the work block reclamation avoids ("reclamation of larger segments of
memory ... avoiding the traversal of the individual objects", §1), and
``gc_swept`` counts cells returned to the allocator one at a time.

Three collectors share the :class:`Collector` interface:

* :class:`MarkSweepGC` — stop-the-world mark–sweep, the baseline.  The
  mark loop deduplicates at *push* time, so every live cell enters the
  mark stack exactly once even on heavily shared spines (``mark_pushes``
  exposes the push count for regression tests).
* :class:`LivenessDirectedGC` — mark–sweep guided by the interprocedural
  heap-liveness facts (:mod:`repro.analysis.heap_liveness`).  Each
  environment binding carries a *live-depth budget*: marking descends one
  spine level per remaining budget unit and stops at zero, so cells that
  are reachable but statically dead are never marked and get swept —
  Karkare-style dead-but-reachable reclamation.  An empty budget map
  degrades to full-reachability marking (= mark–sweep).
* :class:`CopyingGC` — a Cheney-style semi-space model: breadth-first
  evacuation from the roots (cells are Python objects, so "copying" is
  modeled as evacuation order + a ``copied`` count on the ``gc_run``
  event); unreached cells are reclaimed wholesale.

Every collector emits the same ``gc_run`` / ``cell_reclaim`` obs events
with a ``collector=`` label so traces distinguish the zoo members.

Region-resident cells (stack/block) are *not* swept — their lifetime is the
region's — but when reachable they still cost mark work, as they would in a
real collector that must trace through them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs import tracer as obs
from repro.options import COLLECTORS
from repro.semantics.heap import AllocKind, Cell, Heap
from repro.semantics.values import Env, Value, VClosure, VCons, VPrim, VTuple

__all__ = [
    "GcStats",
    "Collector",
    "MarkSweepGC",
    "LivenessDirectedGC",
    "CopyingGC",
    "COLLECTORS",
    "make_collector",
]


@dataclass(frozen=True)
class GcStats:
    marked: int
    swept: int
    live_after: int


def _dec_budget(budget: "int | None") -> "int | None":
    """One spine level deeper: ``⊤`` stays ``⊤``, ``k`` becomes ``k-1``."""
    if budget is None:
        return None
    return budget - 1


class Collector:
    """Shared trigger, sweep, metrics, and event plumbing for the zoo.

    ``threshold`` is the number of heap allocations *since the last
    collection* above which :meth:`maybe_collect` triggers — the usual
    allocation-budget trigger (a live-count trigger would collect at
    every safepoint once live data exceeded it).  ``budgets`` maps binder
    names to live-depth budgets (``None`` = unbounded); only
    :class:`LivenessDirectedGC` consults it, but the parameter lives here
    so call sites construct every collector uniformly.
    """

    name = "abstract"

    def __init__(
        self,
        heap: Heap,
        threshold: int = 10_000,
        budgets: "Mapping[str, int | None] | None" = None,
    ):
        self.heap = heap
        self.threshold = threshold
        self.budgets = dict(budgets) if budgets else {}
        #: The ``heap_allocs`` count at which :meth:`maybe_collect` next
        #: triggers; safepoints compare against it without a call.
        self.due_at = threshold
        #: Cons cells pushed onto the mark stack during the last collect;
        #: with push-time dedup this equals the distinct live cells seen.
        self.mark_pushes = 0

    def budget_of(self, name: str) -> "int | None":
        """Live-depth budget for binder ``name``; unknown names are
        unbounded (the only sound default)."""
        return self.budgets.get(name)

    def collect(self, roots: Iterable["Value | Env"]) -> GcStats:
        heap = self.heap
        marked, mark_work, extras = self._mark(roots)
        swept = self._sweep(marked)

        heap.metrics.gc_runs += 1
        heap.metrics.gc_marked += mark_work
        heap.metrics.gc_swept += swept
        self.due_at = heap.metrics.heap_allocs + self.threshold
        tracing = obs.tracing()
        if tracing is not None:
            tracing.emit(
                "gc_run",
                marked=mark_work,
                swept=swept,
                live_after=len(heap.cells),
                collector=self.name,
                **extras,
            )
            if swept:
                tracing.emit(
                    "cell_reclaim",
                    count=swept,
                    cause="gc-sweep",
                    collector=self.name,
                )
        return GcStats(marked=mark_work, swept=swept, live_after=len(heap.cells))

    def maybe_collect(self, roots: Iterable["Value | Env"]) -> GcStats | None:
        if self.heap.metrics.heap_allocs >= self.due_at:
            return self.collect(roots)
        return None

    # -- subclass hooks ----------------------------------------------------

    def _mark(
        self, roots: Iterable["Value | Env"]
    ) -> "tuple[set[Cell], int, dict]":
        raise NotImplementedError

    def _sweep(self, marked: "set[Cell]") -> int:
        heap = self.heap
        swept = 0
        for cell in list(heap.cells.values()):
            if cell.kind is AllocKind.HEAP and cell not in marked:
                cell.freed = True
                del heap.cells[cell.id]
                swept += 1
        return swept

    def _trace(
        self, roots: Iterable["Value | Env"], fifo: bool = False
    ) -> "tuple[set[Cell], int]":
        """Full-reachability trace: depth-first (mark stack) or
        breadth-first (evacuation queue).  Cons cells are deduplicated at
        push time, so shared spines cost one push per distinct cell."""
        marked: set[Cell] = set()
        mark_work = 0
        self.mark_pushes = 0

        # Environment frames are deduplicated by identity: letrec frames are
        # cyclic (their closures capture the frame itself).
        seen_frames: set[int] = set()
        buf: deque[Value] = deque()
        sanitizer = self.heap.sanitizer

        def push(value: Value) -> None:
            nonlocal mark_work
            if isinstance(value, VCons):
                cell = value.cell
                if cell.freed:
                    # A root-reachable freed cell: harmless unless read, but
                    # worth surfacing — the sanitizer records it as a
                    # warning (never a halt; sound region optimizations
                    # leave dead references behind by design).
                    if sanitizer is not None:
                        sanitizer.warn(
                            "dangling-reference",
                            cell,
                            "gc mark phase",
                            f"freed {cell.kind.value} cell still reachable from roots",
                        )
                    return
                if cell in marked:
                    return
                marked.add(cell)
                mark_work += 1
                self.mark_pushes += 1
            buf.append(value)

        def push_env(env: Env) -> None:
            current: Env | None = env
            while current is not None:
                if id(current.frame) not in seen_frames:
                    seen_frames.add(id(current.frame))
                    for value in current.frame.values():
                        push(value)
                current = current.parent

        for root in roots:
            if isinstance(root, Env):
                push_env(root)
            else:
                push(root)

        while buf:
            value = buf.popleft() if fifo else buf.pop()
            if isinstance(value, VCons):
                push(value.cell.car)
                push(value.cell.cdr)
            elif isinstance(getattr(value, "env", None), Env):
                # any closure-like value (interpreter VClosure, machine
                # MClosure): its captured environment is reachable
                push_env(value.env)
            elif isinstance(value, VPrim):
                for arg in value.args:
                    push(arg)
            elif isinstance(value, VTuple):
                push(value.fst)
                push(value.snd)
        return marked, mark_work


class MarkSweepGC(Collector):
    """Stop-the-world mark–sweep over the full reachable graph."""

    name = "mark-sweep"

    def _mark(self, roots):
        marked, mark_work = self._trace(roots, fifo=False)
        return marked, mark_work, {}


class CopyingGC(Collector):
    """Cheney-style semi-space model: breadth-first evacuation.

    Cells are Python objects with stable identity, so evacuation is
    modeled rather than performed — what changes versus mark–sweep is the
    traversal discipline (FIFO scan of the to-space) and the ``copied``
    count on the ``gc_run`` event; unreached from-space cells are
    reclaimed wholesale by the shared sweep.
    """

    name = "copying"

    def _mark(self, roots):
        marked, mark_work = self._trace(roots, fifo=True)
        return marked, mark_work, {"copied": mark_work}


class LivenessDirectedGC(Collector):
    """Mark–sweep that trusts the static heap-liveness facts.

    Every environment binding is traced under its live-depth budget:
    budget ``k`` marks spine levels ``0..k-1`` (``car`` descends with
    ``k-1``, ``cdr`` keeps ``k``), budget ``0`` marks nothing — the cell
    is reachable but provably never read, so the sweep reclaims it.
    Values without a static story (mid-evaluation temporaries, prim
    arguments, tuple fields, unknown names) trace unbounded.

    A shared cell reached under several budgets is re-traced only on a
    strict improvement (finite budgets below ``⊤``), so marking
    terminates and every cell ends at its best (deepest) budget.
    """

    name = "liveness"

    def _mark(self, roots):
        marked: set[Cell] = set()
        mark_work = 0
        pruned = 0
        self.mark_pushes = 0

        seen_frames: set[int] = set()
        stack: "list[tuple[Value, int | None]]" = []
        # Best (deepest) budget each cell has been scheduled under; a
        # strict improvement re-schedules the cell so its spine is marked
        # to the deeper bound.
        best: "dict[Cell, int | None]" = {}
        sanitizer = self.heap.sanitizer

        def improves(new: "int | None", old: "int | None") -> bool:
            if old is None:
                return False
            return new is None or new > old

        def push(value: Value, budget: "int | None") -> None:
            nonlocal pruned
            if isinstance(value, VCons):
                if budget is not None and budget <= 0:
                    pruned += 1
                    return  # statically dead access path: leave for sweep
                cell = value.cell
                if cell.freed:
                    if sanitizer is not None:
                        sanitizer.warn(
                            "dangling-reference",
                            cell,
                            "gc mark phase",
                            f"freed {cell.kind.value} cell still reachable from roots",
                        )
                    return
                if cell in best and not improves(budget, best[cell]):
                    return
                best[cell] = budget
                self.mark_pushes += 1
            stack.append((value, budget))

        def push_env(env: Env) -> None:
            current: Env | None = env
            while current is not None:
                if id(current.frame) not in seen_frames:
                    seen_frames.add(id(current.frame))
                    for name, value in current.frame.items():
                        push(value, self.budget_of(name))
                current = current.parent

        for root in roots:
            if isinstance(root, Env):
                push_env(root)
            else:
                push(root, None)

        while stack:
            value, budget = stack.pop()
            if isinstance(value, VCons):
                cell = value.cell
                if best.get(cell) != budget:
                    continue  # superseded by a deeper schedule
                marked.add(cell)
                mark_work += 1
                push(value.cell.car, _dec_budget(budget))
                push(value.cell.cdr, budget)
            elif isinstance(getattr(value, "env", None), Env):
                # A closure may run later with its whole captured
                # environment; its bindings keep their own budgets.
                push_env(value.env)
            elif isinstance(value, VPrim):
                for arg in value.args:
                    push(arg, None)
            elif isinstance(value, VTuple):
                push(value.fst, None)
                push(value.snd, None)
        return marked, mark_work, {"pruned": pruned}


def make_collector(
    name: str,
    heap: Heap,
    threshold: int = 10_000,
    budgets: "Mapping[str, int | None] | None" = None,
) -> Collector:
    """Construct a zoo member by its ``--gc`` name."""
    if name == "mark-sweep":
        return MarkSweepGC(heap, threshold=threshold)
    if name == "liveness":
        return LivenessDirectedGC(heap, threshold=threshold, budgets=budgets)
    if name == "copying":
        return CopyingGC(heap, threshold=threshold)
    raise ValueError(
        f"unknown collector {name!r}; expected one of {', '.join(COLLECTORS)}"
    )

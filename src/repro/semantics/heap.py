"""The instrumented cons-cell heap, with regions.

Every non-empty list value points at a :class:`Cell` allocated here.  Cells
record where they were placed:

* ``heap``  — ordinary GC-managed allocation;
* ``stack`` — a region tied to a call's activation (§A.3.1): popped, and
  its cells freed, when the call returns;
* ``block`` — a "local heap" (§A.3.3): released all at once, with no
  per-cell traversal, when its owning call returns;
* ``reused`` is not a placement but an event: ``dcons`` recycles an
  existing cell in place (§A.3.2).

Touching a freed cell raises
:class:`~repro.lang.errors.UseAfterFreeError` — the tripwire that would
expose an unsound optimization.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.lang.ast import Prim
from repro.lang.errors import EvalError, StorageSafetyError, UseAfterFreeError
from repro.obs import tracer as obs
from repro.robust import faults
from repro.semantics.metrics import StorageMetrics
from repro.semantics.values import Env, Value, VClosure, VCons, VPrim, VTuple


class AllocKind(enum.Enum):
    HEAP = "heap"
    STACK = "stack"
    BLOCK = "block"


@dataclass(eq=False)
class Cell:
    """One cons cell.  ``car``/``cdr`` are mutable so ``dcons`` can reuse
    the cell in place."""

    id: int
    car: Value
    cdr: Value
    kind: AllocKind
    region: "Region | None" = None
    site_uid: int | None = None
    freed: bool = False
    #: reuse generation: bumped by every ``dcons`` that recycles this cell,
    #: so references created before the reuse are detectably stale
    version: int = 0

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = " FREED" if self.freed else ""
        return f"Cell#{self.id}[{self.kind.value}{status}]"


@dataclass(eq=False)
class Region:
    """A group of cells reclaimed together."""

    id: int
    kind: AllocKind  # STACK or BLOCK
    label: str = ""
    cells: list[Cell] = field(default_factory=list)
    closed: bool = False


@dataclass(frozen=True)
class StorageViolation:
    """One storage-safety violation detected by the sanitizer."""

    kind: str  # "use-after-reuse" | "read-after-free" | "reclaim-live-cell" | "dangling-reference"
    cell_id: int
    context: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.kind}: cell #{self.cell_id} in {self.context}"
        if self.detail:
            text += f" ({self.detail})"
        return text


class StorageSanitizer:
    """Opt-in storage-safety instrumentation for one heap.

    Detects the three ways an unsound optimization mis-executes:

    * **use-after-reuse** — a read through a reference created before a
      ``dcons`` recycled the cell (the reference observes the new contents
      as if they were the old list);
    * **read-after-free** — a read of a cell reclaimed with its stack or
      block region (also covered by the always-on
      :class:`~repro.lang.errors.UseAfterFreeError` tripwire; the sanitizer
      records it with region provenance);
    * **reclaim-live-cell** — a region close that frees cells still
      reachable from the interpreter's live roots.

    Violations are recorded; with ``halt`` (the default) they also raise
    :class:`~repro.lang.errors.StorageSafetyError` at the faulting access.
    GC-time *dangling-reference* findings (a freed cell still reachable
    from a root) are recorded as warnings only: a dead-but-referenced cell
    is harmless unless actually read, and sound region optimizations
    routinely leave such references behind.
    """

    def __init__(self, halt: bool = True):
        self.halt = halt
        self.violations: list[StorageViolation] = []
        self.warnings: list[StorageViolation] = []

    def report(self, kind: str, cell: Cell, context: str, detail: str = "") -> None:
        violation = StorageViolation(kind, cell.id, context, detail)
        self.violations.append(violation)
        if self.halt:
            raise StorageSafetyError(f"storage sanitizer: {violation}")

    def warn(self, kind: str, cell: Cell, context: str, detail: str = "") -> None:
        self.warnings.append(StorageViolation(kind, cell.id, context, detail))

    @property
    def clean(self) -> bool:
        return not self.violations


class Heap:
    """Allocation, regions, reachability, and the free/reuse events.

    One heap is owned by one :class:`~repro.semantics.interp.Interpreter`;
    they share a :class:`~repro.semantics.metrics.StorageMetrics`.  An
    optional :class:`StorageSanitizer` adds reuse/reclamation safety checks.
    """

    def __init__(
        self,
        metrics: StorageMetrics | None = None,
        sanitizer: StorageSanitizer | None = None,
    ):
        self.metrics = metrics or StorageMetrics()
        self.sanitizer = sanitizer
        self._ids = itertools.count(1)
        self._region_ids = itertools.count(1)
        #: live cells, by id (freed cells are removed but still referenced
        #: by any dangling VCons values, keeping use-after-free detectable)
        self.cells: dict[int, Cell] = {}
        self.region_stack: list[Region] = []

    # -- allocation --------------------------------------------------------

    def allocate(self, car: Value, cdr: Value, site: Prim | None = None) -> Cell:
        """Allocate a fresh cell, honouring the site's ``alloc`` annotation:
        ``"region"`` targets the innermost open region, anything else (or no
        open region) goes to the GC heap."""
        faults.check_alloc()
        placement = site.annotations.get("alloc") if site is not None else None
        region: Region | None = None
        if placement == "region" and self.region_stack:
            region = self.region_stack[-1]
        if region is not None:
            kind = region.kind
            self.metrics.region_allocs += 1
            key = f"{kind.value}:{region.label}" if region.label else kind.value
            self.metrics.by_region_kind[key] = self.metrics.by_region_kind.get(key, 0) + 1
        else:
            kind = AllocKind.HEAP
            self.metrics.heap_allocs += 1
        cell = Cell(
            id=next(self._ids),
            car=car,
            cdr=cdr,
            kind=kind,
            region=region,
            site_uid=site.uid if site is not None else None,
        )
        self.cells[cell.id] = cell
        if region is not None:
            region.cells.append(cell)
        tracing = obs.tracing()
        if tracing is not None:
            tracing.emit("cell_alloc", cell=cell.id, kind=kind.value)
        return cell

    def reuse(self, cell: Cell, car: Value, cdr: Value) -> Cell:
        """``dcons``: destructively overwrite ``cell`` (§6's DCONS).

        Bumps the cell's reuse generation so any reference created before
        this reuse is detectably stale (see :meth:`check_ref`)."""
        self.check_live(cell, "dcons")
        cell.car = car
        cell.cdr = cdr
        cell.version += 1
        self.metrics.reused += 1
        tracing = obs.tracing()
        if tracing is not None:
            tracing.emit("cell_reuse", cell=cell.id)
        return cell

    # -- access guards -------------------------------------------------------

    def check_live(self, cell: Cell, context: str) -> None:
        if cell.freed:
            if self.sanitizer is not None:
                self.sanitizer.report(
                    "read-after-free",
                    cell,
                    context,
                    f"reclaimed with its {cell.kind.value} region",
                )
            raise UseAfterFreeError(
                f"{context}: cell #{cell.id} was reclaimed with its "
                f"{cell.kind.value} region"
            )

    def check_ref(self, ref: VCons, context: str) -> Cell:
        """Sanitized access through a list reference: liveness plus the
        use-after-reuse generation check."""
        cell = ref.cell
        self.check_live(cell, context)
        if self.sanitizer is not None and ref.version != cell.version:
            self.sanitizer.report(
                "use-after-reuse",
                cell,
                context,
                f"reference generation {ref.version}, cell generation "
                f"{cell.version}: the cell was recycled by dcons after this "
                "reference was created",
            )
        return cell

    def read_car(self, cell: Cell, context: str = "car") -> Value:
        self.check_live(cell, context)
        return cell.car

    def read_cdr(self, cell: Cell, context: str = "cdr") -> Value:
        self.check_live(cell, context)
        return cell.cdr

    def car_of(self, ref: VCons, context: str = "car") -> Value:
        """Read ``car`` through a reference (sanitizer-aware)."""
        return self.check_ref(ref, context).car

    def cdr_of(self, ref: VCons, context: str = "cdr") -> Value:
        """Read ``cdr`` through a reference (sanitizer-aware)."""
        return self.check_ref(ref, context).cdr

    # -- regions -----------------------------------------------------------------

    def open_region(self, kind: AllocKind, label: str = "") -> Region:
        if kind is AllocKind.HEAP:
            raise EvalError("regions are stack or block, not heap")
        region = Region(id=next(self._region_ids), kind=kind, label=label)
        self.region_stack.append(region)
        obs.emit("region_push", kind=kind.value, label=label)
        return region

    def close_region(
        self,
        region: Region,
        escaping: "Value | None" = None,
        live_roots: "tuple[Value | Env, ...] | list[Value | Env] | None" = None,
    ) -> int:
        """Free every cell of ``region`` at once.

        If ``escaping`` is given (the value the region's scope returned),
        raise :class:`UseAfterFreeError` immediately when any freed cell is
        still reachable from it — surfacing an unsound optimization at the
        point of deallocation rather than at a later read.

        With a sanitizer installed and ``live_roots`` given (the
        interpreter's full root set), reclamation of any region cell still
        reachable from those roots is reported as a ``reclaim-live-cell``
        violation — catching block reclamation of live cells even when the
        escaping value itself is clean.
        """
        if self.region_stack and self.region_stack[-1] is region:
            self.region_stack.pop()
        else:  # tolerate out-of-order closes from error paths
            self.region_stack = [r for r in self.region_stack if r is not region]
        if region.closed:
            return 0

        if escaping is not None:
            still_needed = self.reachable_cells(escaping)
            leaked = [cell for cell in region.cells if cell in still_needed]
            if leaked:
                raise UseAfterFreeError(
                    f"{len(leaked)} cell(s) of {region.kind.value} region "
                    f"{region.label or region.id} escape its scope "
                    f"(first: #{leaked[0].id}) — the optimization that placed "
                    "them there is unsound for this program"
                )

        if self.sanitizer is not None and live_roots is not None:
            still_live = self.reachable_cells(*live_roots)
            held = [cell for cell in region.cells if cell in still_live]
            if held:
                self.sanitizer.report(
                    "reclaim-live-cell",
                    held[0],
                    f"close {region.kind.value} region {region.label or region.id}",
                    f"{len(held)} cell(s) still reachable from live roots",
                )

        freed = 0
        for cell in region.cells:
            if not cell.freed:
                cell.freed = True
                self.cells.pop(cell.id, None)
                freed += 1
        region.closed = True
        if region.kind is AllocKind.STACK:
            self.metrics.stack_reclaimed += freed
        else:
            self.metrics.block_reclaimed += freed
        tracing = obs.tracing()
        if tracing is not None:
            tracing.emit(
                "region_pop", kind=region.kind.value, label=region.label, freed=freed
            )
            if freed:
                tracing.emit(
                    "cell_reclaim", count=freed, cause=f"{region.kind.value}-region"
                )
        return freed

    # -- reachability ------------------------------------------------------------

    def reachable_cells(self, *roots: "Value | Env") -> set[Cell]:
        """Every cell reachable from the given values/environments, looking
        through cons cells, closures, and partial primitive applications.

        Environment *frames* are deduplicated by identity: a letrec frame
        contains closures whose captured environment is that same frame, so
        a naive walk would loop forever.
        """
        seen: set[Cell] = set()
        seen_frames: set[int] = set()
        stack: list[Value] = []

        def push_env(env: Env) -> None:
            current: Env | None = env
            while current is not None:
                if id(current.frame) not in seen_frames:
                    seen_frames.add(id(current.frame))
                    stack.extend(current.frame.values())
                current = current.parent

        for root in roots:
            if isinstance(root, Env):
                push_env(root)
            else:
                stack.append(root)
        while stack:
            value = stack.pop()
            if isinstance(value, VCons):
                cell = value.cell
                if cell in seen:
                    continue
                seen.add(cell)
                if not cell.freed:
                    stack.append(cell.car)
                    stack.append(cell.cdr)
            elif isinstance(getattr(value, "env", None), Env):
                # any closure-like value (interpreter VClosure, machine
                # MClosure): its captured environment is reachable
                push_env(value.env)
            elif isinstance(value, VPrim):
                stack.extend(value.args)
            elif isinstance(value, VTuple):
                stack.append(value.fst)
                stack.append(value.snd)
        return seen

    # -- spine decomposition (Definition 1 / Figure 1) -----------------------------

    def spine_map(self, value: Value, max_level: int = 64) -> dict[Cell, set[int]]:
        """Map each cell reachable from a list value to the set of spine
        levels it occupies: level ``i`` = reachable with exactly ``i − 1``
        ``car`` operations (any number of ``cdr``)."""
        result: dict[Cell, set[int]] = {}
        seen: set[tuple[int, int]] = set()
        stack: list[tuple[Value, int]] = [(value, 1)]
        while stack:
            current, level = stack.pop()
            if not isinstance(current, VCons) or level > max_level:
                continue
            cell = current.cell
            if (cell.id, level) in seen:
                continue
            seen.add((cell.id, level))
            result.setdefault(cell, set()).add(level)
            if not cell.freed:
                stack.append((cell.cdr, level))  # same spine
                stack.append((cell.car, level + 1))  # next spine down
        return result

    def spine_levels(self, value: Value, max_level: int = 64) -> dict[int, list[Cell]]:
        """The inverse view: spine level → cells on it (Figure 1)."""
        by_level: dict[int, list[Cell]] = {}
        for cell, levels in self.spine_map(value, max_level).items():
            for level in levels:
                by_level.setdefault(level, []).append(cell)
        for cells in by_level.values():
            cells.sort(key=lambda c: c.id)
        return by_level

"""Deterministic fault injection for the hardened engine and runtime.

A :class:`FaultPlan` says *what* to break and *when*, by ordinal — the
``n``-th heap allocation fails, every ``k``-th interpreter safepoint forces
a full GC, the ``n``-th entry to a named stage raises — so a failing run is
exactly reproducible.  Activating a plan installs a process-local
:class:`FaultInjector`; the instrumented code calls the cheap module-level
hooks (:func:`check_alloc`, :func:`check_stage`, :func:`take_forced_gc`),
which are no-ops when no plan is active.

Stages currently instrumented:

* ``"solve"``    — entry to a letrec fixpoint solve
  (:meth:`~repro.escape.abstract.AbstractEvaluator.solve_bindings`);
* ``"query"``    — entry to one attempt of a budgeted escape query
  (:class:`~repro.escape.analyzer.EscapeAnalysis` given a ``budget``);
* ``"reuse"``, ``"stack"``, ``"block"`` — one optimization step of
  :func:`~repro.opt.driver.apply_plan`; ``"plan"`` and ``"validate"`` —
  the survey and the validation run of
  :func:`~repro.opt.driver.harden_optimize`;
* ``"store_load"``, ``"store_write"`` — the on-disk analysis store
  (:mod:`repro.store`): a ``store_load`` fault reads as a miss, a
  ``store_write`` fault loses the write (both are absorbed, by design);
* ``"worker"``   — entry to one supervised batch worker attempt
  (:mod:`repro.batch`), the stage the supervisor's crash/hang faults key on;
* ``"serve"``    — entry to one daemon request execution
  (:mod:`repro.serve`).

Beyond raising, a plan can *tear* a store write (``torn_write_at``: the
payload lands truncated and the temp file is orphaned, exactly the residue
of a writer killed between create and rename), *crash* a worker process
(``worker_crash_at``: ``os._exit`` mid-task, the supervisor must replace
it), and *stall* a stage (``slow_stages``: a deterministic sleep, the hung
worker the per-file timeout must reap).

Use as a context manager so a failing test cannot leak faults into the
next one::

    with faults.inject(FaultPlan(fail_alloc_at=5)):
        ...
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.lang.errors import HeapAllocationError
from repro.robust.errors import InjectedFault, Severity


@dataclass(frozen=True)
class StageFault:
    """Fail the ``at``-th entry (1-based) to stage ``stage``."""

    stage: str
    at: int = 1
    severity: Severity = Severity.DEGRADABLE
    message: str = ""


@dataclass(frozen=True)
class SlowStage:
    """Stall the ``at``-th entry (1-based) to stage ``stage`` for
    ``seconds`` — the deterministic "hung worker" / "slow disk" fault.
    With ``every`` set, every ``every``-th entry from ``at`` onward stalls.
    """

    stage: str
    at: int = 1
    seconds: float = 0.05
    every: int | None = None

    def matches(self, count: int) -> bool:
        if self.every is not None:
            return count >= self.at and (count - self.at) % self.every == 0
        return count == self.at


@dataclass(frozen=True)
class FaultPlan:
    """What to inject.  All ordinals are 1-based; ``None`` disables.

    * ``fail_alloc_at``    — the single allocation ordinal that fails;
    * ``fail_alloc_every`` — every ``n``-th allocation fails (adversarial
      sustained memory pressure);
    * ``gc_every``         — force a full collection at every ``n``-th
      interpreter safepoint, regardless of thresholds;
    * ``stage_faults``     — exceptions raised at chosen stage entries
      (the ``"store_load"`` / ``"store_write"`` stages turn these into
      failed reads/lost writes, absorbed by the store's contract);
    * ``slow_stages``      — deterministic stalls at chosen stage entries
      (a ``"worker"`` stall is the hung worker a per-file timeout reaps);
    * ``torn_write_at``    — the ``n``-th store write is torn: the entry
      lands truncated on disk and the temp file is orphaned, simulating a
      writer that died between create and rename (``torn_write_every``
      repeats it);
    * ``worker_crash_at``  — the ``n``-th supervised worker attempt dies
      hard (``os._exit`` in a worker process, an exception in-process);
    * ``unsound_reuse_at`` — the ``n``-th reuse specialization silently
      skips its escape/liveness safety gate, producing a genuinely unsound
      ``DCONS`` program — the adversarial input the static auditor
      (:mod:`repro.check.audit`) must catch without running it.
    """

    fail_alloc_at: int | None = None
    fail_alloc_every: int | None = None
    gc_every: int | None = None
    stage_faults: tuple[StageFault, ...] = field(default_factory=tuple)
    slow_stages: tuple[SlowStage, ...] = field(default_factory=tuple)
    torn_write_at: int | None = None
    torn_write_every: int | None = None
    worker_crash_at: int | None = None
    unsound_reuse_at: int | None = None


class FaultInjector:
    """The runtime counters for one active plan."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.allocs = 0
        self.safepoints = 0
        self.reuse_gates = 0
        self.store_writes = 0
        self.worker_entries = 0
        self.stage_entries: dict[str, int] = {}
        #: every fault actually fired, for test assertions
        self.fired: list[str] = []

    def on_alloc(self) -> None:
        self.allocs += 1
        plan = self.plan
        if plan.fail_alloc_at is not None and self.allocs == plan.fail_alloc_at:
            self.fired.append(f"alloc@{self.allocs}")
            raise HeapAllocationError(
                f"injected allocation failure at allocation #{self.allocs}"
            )
        if plan.fail_alloc_every is not None and self.allocs % plan.fail_alloc_every == 0:
            self.fired.append(f"alloc@{self.allocs}")
            raise HeapAllocationError(
                f"injected allocation failure at allocation #{self.allocs}"
            )

    def on_stage(self, stage: str) -> None:
        count = self.stage_entries.get(stage, 0) + 1
        self.stage_entries[stage] = count
        for slow in self.plan.slow_stages:
            if slow.stage == stage and slow.matches(count):
                self.fired.append(f"slow:{stage}@{count}")
                time.sleep(slow.seconds)
        for fault in self.plan.stage_faults:
            if fault.stage == stage and fault.at == count:
                self.fired.append(f"{stage}@{count}")
                raise InjectedFault(
                    fault.message or f"injected fault at stage {stage!r} entry #{count}",
                    stage=stage,
                    severity=fault.severity,
                )

    def take_torn_write(self) -> bool:
        """True when the current store write must land torn (truncated
        entry plus an orphaned temp file — the residue of a writer that
        died between create and rename)."""
        self.store_writes += 1
        plan = self.plan
        if plan.torn_write_at is not None and self.store_writes == plan.torn_write_at:
            self.fired.append(f"torn_write@{self.store_writes}")
            return True
        if (
            plan.torn_write_every is not None
            and self.store_writes % plan.torn_write_every == 0
        ):
            self.fired.append(f"torn_write@{self.store_writes}")
            return True
        return False

    def take_worker_crash(self) -> bool:
        """True when the current supervised worker attempt must die hard."""
        self.worker_entries += 1
        if self.plan.worker_crash_at == self.worker_entries:
            self.fired.append(f"worker_crash@{self.worker_entries}")
            return True
        return False

    def take_unsound_reuse(self) -> bool:
        """True when the current reuse specialization must skip its safety
        gate (the compiler-bug simulation the auditor exists to catch)."""
        self.reuse_gates += 1
        if self.plan.unsound_reuse_at == self.reuse_gates:
            self.fired.append(f"unsound_reuse@{self.reuse_gates}")
            return True
        return False

    def take_forced_gc(self) -> bool:
        if self.plan.gc_every is None:
            return False
        self.safepoints += 1
        if self.safepoints % self.plan.gc_every == 0:
            self.fired.append(f"gc@{self.safepoints}")
            return True
        return False


#: The active injector, if any.  Process-local by design: the engine is
#: synchronous and the harness is for tests.
_ACTIVE: FaultInjector | None = None


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    injector = FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def active() -> FaultInjector | None:
    return _ACTIVE


# -- hooks called from instrumented code (no-ops when inactive) -------------


def check_alloc() -> None:
    if _ACTIVE is not None:
        _ACTIVE.on_alloc()


def check_stage(stage: str) -> None:
    if _ACTIVE is not None:
        _ACTIVE.on_stage(stage)


def take_forced_gc() -> bool:
    return _ACTIVE is not None and _ACTIVE.take_forced_gc()


def take_unsound_reuse() -> bool:
    return _ACTIVE is not None and _ACTIVE.take_unsound_reuse()


def take_torn_write() -> bool:
    return _ACTIVE is not None and _ACTIVE.take_torn_write()


def take_worker_crash() -> bool:
    return _ACTIVE is not None and _ACTIVE.take_worker_crash()

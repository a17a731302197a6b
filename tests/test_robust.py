"""The hardened engine: taxonomy, budgets, degradation soundness, fault
injection, the storage-safety sanitizer, and the hardened pipeline.

The load-bearing invariant throughout: a degraded answer is always ⊒ the
exact answer in ``B_e`` (the ``W^τ`` worst case of Definition 2 is sound
for every application), and a degraded pipeline still yields a correct —
possibly unoptimized — program.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.escape.analyzer import EscapeAnalysis
from repro.escape.lattice import Escapement
from repro.escape.worst import worst_escapement, worst_test_result
from repro.lang.ast import Prim
from repro.lang.errors import (
    AnalysisError,
    HeapAllocationError,
    OptimizationError,
    ParseError,
    StorageSafetyError,
    TypeInferenceError,
    UseAfterFreeError,
)
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.obs import RingBufferSink, Tracer, activate
from repro.lang.prelude import (
    paper_map_pair,
    paper_partition_sort,
    prelude_program,
    prelude_source,
)
from repro.opt.driver import apply_plan, harden_optimize, plan_optimizations
from repro.opt.pipeline import paper_ps_prime, paper_rev_prime
from repro.robust import faults
from repro.robust.budget import AnalysisBudget, BudgetMeter
from repro.robust.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    Degradation,
    InjectedFault,
    IterationBudgetExceeded,
    Severity,
    WorkBudgetExceeded,
    classify,
    reason_for,
)
from repro.robust.faults import FaultPlan, StageFault
from repro.semantics.gc import MarkSweepGC
from repro.semantics.heap import AllocKind, Heap, StorageSanitizer
from repro.semantics.interp import run_program
from repro.semantics.values import VCons, VInt, VNil
from repro.types.types import INT, TList, arity


# ---------------------------------------------------------------------------
# the error taxonomy
# ---------------------------------------------------------------------------


class TestTaxonomy:
    def test_budget_breaches_are_degradable(self):
        for error in (
            DeadlineExceeded("d"),
            IterationBudgetExceeded("i"),
            WorkBudgetExceeded("w"),
        ):
            assert classify(error) is Severity.DEGRADABLE
            assert isinstance(error, BudgetExceeded)

    def test_allocation_failure_is_retryable(self):
        assert classify(HeapAllocationError("oom")) is Severity.RETRYABLE

    def test_soundness_tripwires_are_fatal(self):
        assert classify(UseAfterFreeError("uaf")) is Severity.FATAL
        assert classify(StorageSafetyError("san")) is Severity.FATAL

    def test_frontend_errors_are_fatal(self):
        # No types ⇒ no W^τ ⇒ nothing sound to degrade to.
        assert classify(ParseError("p")) is Severity.FATAL
        assert classify(TypeInferenceError("t")) is Severity.FATAL

    def test_analysis_and_optimization_errors_degrade(self):
        assert classify(AnalysisError("a")) is Severity.DEGRADABLE
        assert classify(OptimizationError("o")) is Severity.DEGRADABLE

    def test_injected_fault_carries_its_severity(self):
        assert classify(InjectedFault("x")) is Severity.DEGRADABLE
        fatal = InjectedFault("x", severity=Severity.FATAL)
        assert classify(fatal) is Severity.FATAL

    def test_unknown_exceptions_are_fatal(self):
        assert classify(ZeroDivisionError()) is Severity.FATAL

    def test_reason_tags(self):
        assert reason_for(DeadlineExceeded("d")) == "deadline-exceeded"
        assert reason_for(IterationBudgetExceeded("i")) == "iteration-budget-exceeded"
        assert reason_for(WorkBudgetExceeded("w")) == "work-budget-exceeded"
        assert reason_for(InjectedFault("f")) == "injected-fault"
        assert reason_for(HeapAllocationError("a")) == "allocation-failed"
        assert reason_for(OptimizationError("o")) == "optimization-skipped"
        assert reason_for(AnalysisError("x")) == "analysis-failed"


# ---------------------------------------------------------------------------
# budgets and meters
# ---------------------------------------------------------------------------


class TestBudget:
    def test_unlimited_by_default(self):
        budget = AnalysisBudget()
        assert budget.unlimited
        meter = budget.start()
        for _ in range(1000):
            meter.tick_eval()
        meter.tick_iteration()
        assert meter.spent().eval_steps == 1000

    def test_eval_step_budget(self):
        meter = AnalysisBudget(max_eval_steps=3).start()
        meter.tick_eval()
        meter.tick_eval()
        meter.tick_eval()
        with pytest.raises(WorkBudgetExceeded):
            meter.tick_eval()

    def test_iteration_budget(self):
        meter = AnalysisBudget(max_fixpoint_iterations=2).start()
        meter.tick_iteration()
        meter.tick_iteration()
        with pytest.raises(IterationBudgetExceeded):
            meter.tick_iteration()

    def test_zero_deadline_trips_immediately(self):
        meter = AnalysisBudget(deadline_s=0.0).start()
        with pytest.raises(DeadlineExceeded):
            meter.check_deadline()

    def test_spent_snapshot(self):
        meter = AnalysisBudget().start()
        meter.tick_eval()
        meter.tick_iteration()
        spent = meter.spent()
        assert spent.eval_steps == 1 and spent.iterations == 1
        assert spent.wall_seconds >= 0.0

    def test_str_forms(self):
        assert str(AnalysisBudget()) == "unlimited"
        assert "500ms" in str(AnalysisBudget(deadline_s=0.5))


# ---------------------------------------------------------------------------
# the W^τ worst case
# ---------------------------------------------------------------------------


class TestWorstCase:
    def test_worst_escapement_uses_spine_count(self):
        assert worst_escapement(TList(INT)) == Escapement(1, 1)
        assert worst_escapement(TList(TList(INT))) == Escapement(1, 2)
        assert worst_escapement(INT) == Escapement(1, 0)

    def test_worst_test_result_shape(self):
        result = worst_test_result("f", 1, TList(INT))
        assert result.function == "f"
        assert result.result == Escapement(1, 1)
        assert result.escaping_spines == 1

    def test_worst_dominates_every_exact_answer(self, ps_analysis):
        # ⟨1, sᵢ⟩ is the top of the reachable escapements at the type.
        for name in ("append", "split", "ps"):
            types = ps_analysis.program.binding(name).expr.ty
            from repro.types.types import fun_args

            arg_types, _ = fun_args(types)
            for exact, ty in zip(ps_analysis.global_all(name), arg_types):
                assert exact.result.leq(worst_escapement(ty))


# ---------------------------------------------------------------------------
# the widening safety net (satellite: drive past max_iterations)
# ---------------------------------------------------------------------------


class TestWideningSafetyNet:
    def test_capped_fixpoint_widens(self):
        program = prelude_program(["append"], "append [1] [2]")
        capped = EscapeAnalysis(program, max_iterations=1)
        solved = capped.solve()
        trace = solved.trace("append")
        assert trace.widened and not trace.converged
        assert trace.iterations == 1

    def test_widened_env_dominates_converged(self):
        program = prelude_program(["append"], "append [1] [2]")
        converged = EscapeAnalysis(program).solve()
        widened = EscapeAnalysis(program, max_iterations=1).solve()
        assert converged.trace("append").converged
        ty = program.binding("append").expr.ty
        # Same chain (same program, same d), so fingerprints are comparable.
        assert converged.evaluator.value_leq(
            converged.env["append"], widened.env["append"], ty
        )
        assert not widened.evaluator.value_leq(
            widened.env["append"], converged.env["append"], ty
        )

    def test_capped_analysis_still_answers_soundly(self):
        program = prelude_program(["append"], "append [1] [2]")
        exact = EscapeAnalysis(program).global_test("append", 1)
        capped = EscapeAnalysis(program, max_iterations=1).global_test("append", 1)
        assert exact.result.leq(capped.result)
        assert capped.result == Escapement(1, 1)


# ---------------------------------------------------------------------------
# the hardened engine
# ---------------------------------------------------------------------------


class TestHardenedAnalysis:
    """``EscapeAnalysis`` given a budget: every query answers, exact or
    degraded to the ``W^τ`` worst case."""

    def test_exact_within_budget(self, partition_sort):
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            analysis = EscapeAnalysis(partition_sort, budget=AnalysisBudget())
            result = analysis.global_test("append", 1)
        assert result.degradation is None and not result.degraded
        assert str(result.result) == "<1,0>"
        charges = [e for e in ring.events if e["type"] == "budget_charge"]
        assert len(charges) == 1 and charges[0]["eval_steps"] > 0

    @pytest.mark.parametrize(
        "budget, reason",
        [
            (AnalysisBudget(deadline_s=0.0), "deadline-exceeded"),
            (AnalysisBudget(max_fixpoint_iterations=1), "iteration-budget-exceeded"),
            (AnalysisBudget(max_eval_steps=10), "work-budget-exceeded"),
        ],
        ids=["deadline", "iterations", "steps"],
    )
    def test_budget_breach_degrades_with_reason(self, partition_sort, budget, reason):
        analysis = EscapeAnalysis(partition_sort, budget=budget)
        results = analysis.global_all("append")
        assert len(results) == 2
        for result in results:
            assert result.degraded
            assert result.degradation.reason == reason
            assert result.degradation.error is not None
            assert result.result == Escapement(1, 1)

    def test_degraded_dominates_exact(self, partition_sort):
        exact = {
            (r.function, r.param_index): r.result
            for name in ("append", "split", "ps")
            for r in EscapeAnalysis(partition_sort).global_all(name)
        }
        analysis = EscapeAnalysis(
            partition_sort, budget=AnalysisBudget(max_eval_steps=50)
        )
        for name in ("append", "split", "ps"):
            for result in analysis.global_all(name):
                key = (result.function, result.param_index)
                assert exact[key].leq(result.result)

    def test_budget_spent_is_recorded(self, partition_sort):
        analysis = EscapeAnalysis(
            partition_sort, budget=AnalysisBudget(max_eval_steps=10)
        )
        result = analysis.global_test("append", 1)
        assert result.degradation.spent.eval_steps >= 10

    def test_untypeable_program_is_fatal_at_construction(self):
        from repro.lang.parser import parse_program

        bad = parse_program("f x = f;\nf [1]")  # occurs-check failure
        with pytest.raises(TypeInferenceError):
            EscapeAnalysis(bad, budget=AnalysisBudget())

    def test_unknown_function_raises(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort, budget=AnalysisBudget())
        with pytest.raises(AnalysisError):
            analysis.global_all("nope")
        with pytest.raises(AnalysisError):
            analysis.global_test("append", 9)

    def test_local_test_degrades(self, partition_sort):
        analysis = EscapeAnalysis(
            partition_sort, budget=AnalysisBudget(max_eval_steps=5)
        )
        results = analysis.local_test("append (ps [2, 1]) [3]")
        assert len(results) == 2
        assert all(r.degraded for r in results)
        # The degraded local answer still uses append's parameter types.
        assert results[0].result == Escapement(1, 1)

    def test_local_test_exact(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort, budget=AnalysisBudget())
        results = analysis.local_test("append (ps [2, 1]) [3]")
        assert all(not r.degraded for r in results)


# ---------------------------------------------------------------------------
# fault injection: the matrix (EXPERIMENTS.md row R1)
# ---------------------------------------------------------------------------

MATRIX_PROGRAMS = [
    ("partition-sort", paper_partition_sort),
    ("map-pair", paper_map_pair),
    ("rev", lambda: prelude_program(["rev"], "rev [1, 2, 3]")),
]

MATRIX_FAULTS = [
    ("deadline", AnalysisBudget(deadline_s=0.0), FaultPlan()),
    ("iterations", AnalysisBudget(max_fixpoint_iterations=1), FaultPlan()),
    ("steps", AnalysisBudget(max_eval_steps=25), FaultPlan()),
    (
        "solve-fault",
        AnalysisBudget(),
        FaultPlan(stage_faults=(StageFault(stage="solve"),)),
    ),
    (
        "query-fault",
        AnalysisBudget(),
        FaultPlan(stage_faults=(StageFault(stage="query"),)),
    ),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("prog_name, make", MATRIX_PROGRAMS, ids=[p[0] for p in MATRIX_PROGRAMS])
    @pytest.mark.parametrize("fault_name, budget, plan", MATRIX_FAULTS, ids=[f[0] for f in MATRIX_FAULTS])
    def test_degraded_or_exact_never_unsound(self, prog_name, make, fault_name, budget, plan):
        program = make()
        function = program.binding_names()[0]
        exact = EscapeAnalysis(program).global_all(function)

        with faults.inject(plan):
            injured = EscapeAnalysis(program, budget=budget).global_all(function)

        assert len(injured) == len(exact)
        for e, r in zip(exact, injured):
            assert e.result.leq(r.result)  # soundness, degraded or not
            if r.degraded:
                assert r.degradation.reason in (
                    "deadline-exceeded",
                    "iteration-budget-exceeded",
                    "work-budget-exceeded",
                    "injected-fault",
                )

        # No shared-state corruption: a clean rerun is exact again.
        clean = EscapeAnalysis(program, budget=AnalysisBudget()).global_all(function)
        for e, r in zip(exact, clean):
            assert not r.degraded
            assert e.result == r.result

    def test_retryable_fault_is_retried(self, partition_sort):
        plan = FaultPlan(
            stage_faults=(
                StageFault(stage="query", at=1, severity=Severity.RETRYABLE),
            )
        )
        with faults.inject(plan) as injector:
            result = EscapeAnalysis(
                partition_sort, budget=AnalysisBudget()
            ).global_test("append", 1)
        assert injector.fired == ["query@1"]
        assert not result.degraded  # the second attempt succeeded

    def test_retry_exhaustion_degrades(self, partition_sort):
        plan = FaultPlan(
            stage_faults=tuple(
                StageFault(stage="query", at=n, severity=Severity.RETRYABLE)
                for n in (1, 2, 3)
            )
        )
        with faults.inject(plan):
            result = EscapeAnalysis(
                partition_sort, budget=AnalysisBudget()
            ).global_test("append", 1)
        assert result.degraded
        assert result.degradation.reason == "injected-fault"

    def test_fatal_injection_propagates(self, partition_sort):
        plan = FaultPlan(
            stage_faults=(StageFault(stage="solve", severity=Severity.FATAL),)
        )
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                EscapeAnalysis(partition_sort, budget=AnalysisBudget()).global_test(
                    "append", 1
                )

    def test_alloc_failure_surfaces_in_the_runtime(self):
        program = prelude_program(["append"], "append [1, 2] [3]")
        with faults.inject(FaultPlan(fail_alloc_at=4)):
            with pytest.raises(HeapAllocationError):
                run_program(program)

    @pytest.mark.parametrize(
        "make",
        [paper_partition_sort, lambda: paper_ps_prime().program, lambda: paper_rev_prime().program],
        ids=["ps", "ps-prime", "rev-prime"],
    )
    def test_adversarial_gc_preserves_results(self, make):
        program = make()
        baseline, _ = run_program(program)
        with faults.inject(FaultPlan(gc_every=3)) as injector:
            stressed, metrics = run_program(program, sanitize=True)
        assert stressed == baseline
        assert injector.fired  # the GC really ran
        assert metrics.gc_runs > 0

    def test_no_plan_means_no_overhead_paths(self):
        assert faults.active() is None
        assert faults.take_forced_gc() is False
        faults.check_alloc()
        faults.check_stage("solve")  # all no-ops


# ---------------------------------------------------------------------------
# the storage-safety sanitizer
# ---------------------------------------------------------------------------


def _region_site() -> Prim:
    site = Prim(name="cons")
    site.annotations["alloc"] = "region"
    return site


class TestSanitizer:
    def test_use_after_reuse_detected(self):
        sanitizer = StorageSanitizer()
        heap = Heap(sanitizer=sanitizer)
        cell = heap.allocate(VInt(1), VNil())
        stale = VCons(cell)  # snapshot of generation 0
        heap.reuse(cell, VInt(9), VNil())
        with pytest.raises(StorageSafetyError):
            heap.car_of(stale)
        assert sanitizer.violations[0].kind == "use-after-reuse"

    def test_fresh_reference_after_reuse_is_fine(self):
        heap = Heap(sanitizer=StorageSanitizer())
        cell = heap.allocate(VInt(1), VNil())
        heap.reuse(cell, VInt(9), VNil())
        fresh = VCons(cell)  # created at generation 1
        assert heap.car_of(fresh) == VInt(9)

    def test_without_sanitizer_stale_reads_pass(self):
        # The un-sanitized heap keeps the paper's semantics: dcons aliases
        # observe the new contents silently.
        heap = Heap()
        cell = heap.allocate(VInt(1), VNil())
        stale = VCons(cell)
        heap.reuse(cell, VInt(9), VNil())
        assert heap.car_of(stale) == VInt(9)

    def test_read_after_free_records_region_provenance(self):
        sanitizer = StorageSanitizer()
        heap = Heap(sanitizer=sanitizer)
        region = heap.open_region(AllocKind.STACK, label="frame")
        cell = heap.allocate(VInt(1), VNil(), site=_region_site())
        ref = VCons(cell)
        heap.close_region(region)
        with pytest.raises(StorageSafetyError):
            heap.car_of(ref)
        violation = sanitizer.violations[0]
        assert violation.kind == "read-after-free"
        assert "stack" in violation.detail

    def test_reclaim_live_cell_detected(self):
        sanitizer = StorageSanitizer()
        heap = Heap(sanitizer=sanitizer)
        region = heap.open_region(AllocKind.BLOCK, label="blk")
        cell = heap.allocate(VInt(1), VNil(), site=_region_site())
        live = VCons(cell)
        with pytest.raises(StorageSafetyError):
            heap.close_region(region, live_roots=[live])
        assert sanitizer.violations[0].kind == "reclaim-live-cell"

    def test_reclaim_dead_cell_is_clean(self):
        sanitizer = StorageSanitizer()
        heap = Heap(sanitizer=sanitizer)
        region = heap.open_region(AllocKind.BLOCK)
        heap.allocate(VInt(1), VNil(), site=_region_site())
        heap.close_region(region, live_roots=[VNil()])
        assert sanitizer.clean

    def test_gc_dangling_reference_is_a_warning_not_a_halt(self):
        sanitizer = StorageSanitizer()
        heap = Heap(sanitizer=sanitizer)
        region = heap.open_region(AllocKind.STACK)
        cell = heap.allocate(VInt(1), VNil(), site=_region_site())
        dangling = VCons(cell)
        heap.close_region(region)
        MarkSweepGC(heap).collect([dangling])
        assert sanitizer.clean  # no violation...
        assert sanitizer.warnings[0].kind == "dangling-reference"

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: paper_ps_prime().program, [1, 2, 3, 4, 5, 7]),
            (lambda: paper_rev_prime().program, [5, 4, 3, 2, 1]),
        ],
        ids=["ps-prime", "rev-prime"],
    )
    def test_sound_optimized_programs_run_clean(self, make, expected):
        from repro.semantics.interp import Interpreter

        program = make()
        interp = Interpreter(sanitize=True)
        value = interp.run(program)
        assert interp.to_python(value) == expected
        assert interp.sanitizer.clean

    def test_machine_supports_the_sanitizer(self):
        from repro.machine.machine import run_compiled

        result, _ = run_compiled(paper_ps_prime().program, sanitize=True)
        assert result == [1, 2, 3, 4, 5, 7]


# ---------------------------------------------------------------------------
# the hardened pipeline
# ---------------------------------------------------------------------------


class TestHardenedPipeline:
    def test_optimizes_and_stays_correct(self, partition_sort):
        outcome = harden_optimize(partition_sort, validate=True)
        assert outcome.applied
        result, metrics = run_program(outcome.program)
        assert result == [1, 2, 3, 4, 5, 7]
        assert metrics.reused > 0

    def test_failed_step_is_skipped_and_recorded(self, partition_sort):
        plan = FaultPlan(stage_faults=(StageFault(stage="reuse", at=1),))
        with faults.inject(plan):
            outcome = harden_optimize(partition_sort)
        assert outcome.degraded
        skipped = [d for d in outcome.degradations if d.reason == "injected-fault"]
        assert len(skipped) == 1
        assert skipped[0].stage.startswith("reuse:")
        assert isinstance(skipped[0].error, InjectedFault)
        # The surviving transforms still form a correct program.
        result, _ = run_program(outcome.program)
        assert result == [1, 2, 3, 4, 5, 7]

    def test_plan_failure_returns_unoptimized_program(self, partition_sort):
        outcome = harden_optimize(partition_sort, budget=AnalysisBudget(deadline_s=0.0))
        assert outcome.program is partition_sort
        assert not outcome.applied
        assert outcome.degradations[0].stage == "plan"
        assert outcome.degradations[0].reason == "deadline-exceeded"

    def test_all_steps_faulted_still_yields_the_input(self, partition_sort):
        plan = FaultPlan(
            stage_faults=tuple(
                StageFault(stage=s, at=n) for s in ("reuse", "stack", "block") for n in (1, 2, 3, 4)
            )
        )
        with faults.inject(plan):
            outcome = harden_optimize(partition_sort)
        result, _ = run_program(outcome.program)
        assert result == [1, 2, 3, 4, 5, 7]

    def test_fatal_fault_in_a_step_propagates(self, partition_sort):
        plan = FaultPlan(
            stage_faults=(StageFault(stage="reuse", severity=Severity.FATAL),)
        )
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                harden_optimize(partition_sort)


# ---------------------------------------------------------------------------
# the one applier: apply_plan's rules, which harden_optimize inherits
# ---------------------------------------------------------------------------

#: A body call whose plan is a block decision, then a stack decision.
BLOCK_THEN_STACK = "f x y = length x + length y;\n" + prelude_source(
    ["length", "create_list"], "f (create_list 3) [1, 2]"
)


class TestOneApplier:
    def test_decisions_apply_in_plan_order(self):
        program = parse_program(BLOCK_THEN_STACK)
        plan = plan_optimizations(program)
        assert [d.kind for d in plan.decisions] == ["block", "stack"]
        for applied in (apply_plan(plan).log, harden_optimize(program).applied):
            assert [line.split()[0] for line in applied] == [
                "block-allocated",
                "stack-allocated",
            ]

    def test_the_stack_rewrite_runs_at_most_once(self):
        # Two stack decisions, one body-wide rewrite, nothing to place.
        source = BLOCK_THEN_STACK.replace("(create_list 3) [1, 2]", "nil nil")
        program = parse_program(source)
        assert [d.kind for d in plan_optimizations(program).decisions] == ["stack"] * 2
        outcome = harden_optimize(program)
        assert [(d.reason, d.stage) for d in outcome.degradations] == [
            ("optimization-skipped", "stack:<body>")
        ]

    def test_a_faulted_step_is_skipped_and_the_rest_applied(self, partition_sort):
        plan = plan_optimizations(partition_sort)
        with faults.inject(FaultPlan(stage_faults=(StageFault("reuse", at=1),))):
            outcome = apply_plan(plan)
        first = plan.by_kind("reuse")[0].function
        assert [line for line in outcome.log if line.startswith("skip reuse")] == [
            f"skip reuse {first}: injected fault at stage 'reuse' entry #1"
        ]
        assert {f"added {d.function}_reuse" for d in plan.by_kind("reuse")[1:]} <= {
            line.split(" (")[0] for line in outcome.applied
        }
        assert run_program(outcome.program)[0] == [1, 2, 3, 4, 5, 7]

    def test_a_record_holds_no_frames(self, partition_sort):
        # A traceback would tie the recording frame, and every frame below
        # it with its programs and sessions, into a reference cycle with
        # the list of records.
        for outcome in (
            apply_plan(plan_optimizations(partition_sort)),
            harden_optimize(partition_sort),
        ):
            assert outcome.degradations
            assert all(d.error.__traceback__ is None for d in outcome.degradations)

    def test_only_the_hardened_caller_emits_degradation_events(self, partition_sort):
        from repro.diff.snapshot import snapshot_program
        from repro.obs import RingBufferSink, Tracer, activate

        def degradations(run) -> int:
            ring = RingBufferSink(capacity=None)
            with activate(Tracer(sinks=[ring])):
                run()
            return sum(1 for e in ring.events if e["type"] == "degradation")

        assert degradations(lambda: snapshot_program(partition_sort, "ps.nml")) == 0
        assert degradations(lambda: harden_optimize(partition_sort)) == 1


# ---------------------------------------------------------------------------
# one session per hardened front door
# ---------------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: examples/*.nml plus every 10th generated corpus program
ORACLE_FILES = sorted(EXAMPLES.glob("*.nml")) + sorted(
    (EXAMPLES / "generated").glob("gen-*.nml")
)[::10]


def _optimize_outcome(result) -> tuple:
    return (
        pretty_program(result.program),
        result.applied,
        [(d.reason, d.stage) for d in result.degradations],
    )


def _unshared_derive(self, program):
    """``AnalysisSession.derive`` without the sharing: a rewrite gets tiers
    of its own, so nothing an earlier step solved is reused."""
    if program is self.program:
        return self
    return type(self)(program, d=self.d_override, max_iterations=self.max_iterations)


class TestSharedSession:
    """Noise-free work gates on the hardened front doors, and the oracle
    that a store-backed session changes no ``harden_optimize`` answer."""

    @pytest.mark.parametrize("name", ["partition_sort.nml", "reverse.nml"])
    def test_hardened_analysis_infers_once(self, name, work_counts):
        # The session's base inference types the program; a budgeted query
        # reads its parameter types from the types that inference stamped.
        program = parse_program((EXAMPLES / name).read_text())
        EscapeAnalysis(program, budget=AnalysisBudget())
        assert work_counts == {"infer": 1, "sessions": 1}

    def test_harden_optimize_work_count_gate(self, work_counts):
        # One session serves the survey and every rewrite step: the
        # planner's, which also serves the first reuse rewrite, plus one
        # derived session each for the second and third reuse rewrites and
        # the stack rewrite.
        program = parse_program((EXAMPLES / "partition_sort.nml").read_text())
        harden_optimize(program)
        assert work_counts["sessions"] <= 4
        assert work_counts["infer"] <= 8

    @pytest.mark.parametrize(
        "path", ORACLE_FILES, ids=lambda p: p.relative_to(EXAMPLES).as_posix()
    )
    def test_shared_and_store_backed_sessions_change_no_answer(
        self, path, tmp_path, monkeypatch
    ):
        from repro.query import AnalysisSession
        from repro.store import AnalysisStore

        source = path.read_text()
        with monkeypatch.context() as patch:
            patch.setattr(AnalysisSession, "derive", _unshared_derive)
            expected = _optimize_outcome(harden_optimize(parse_program(source)))
        shared = harden_optimize(parse_program(source))
        assert _optimize_outcome(shared) == expected
        store = AnalysisStore(tmp_path / "store")
        for run in ("cold", "warm"):
            program = parse_program(source)
            session = AnalysisSession(program, store=store)
            outcome = harden_optimize(program, session=session)
            assert _optimize_outcome(outcome) == expected, run
        assert session.stats.store_hits > 0  # the warm run read the store


# ---------------------------------------------------------------------------
# degradation records
# ---------------------------------------------------------------------------


class TestDegradationRecord:
    def test_str_includes_reason_stage_and_message(self):
        d = Degradation(reason="deadline-exceeded", stage="fixpoint", message="slow")
        text = str(d)
        assert "deadline-exceeded" in text and "fixpoint" in text and "slow" in text

    def test_original_exception_preserved(self, partition_sort):
        analysis = EscapeAnalysis(
            partition_sort, budget=AnalysisBudget(max_fixpoint_iterations=1)
        )
        result = analysis.global_test("append", 1)
        assert isinstance(result.degradation.error, IterationBudgetExceeded)

    def test_degraded_answer_holds_no_frames(self, partition_sort):
        analysis = EscapeAnalysis(partition_sort, budget=AnalysisBudget(max_eval_steps=10))
        result = analysis.global_test("append", 1)
        assert result.degraded
        assert result.degradation.error.__traceback__ is None


# ---------------------------------------------------------------------------
# one front door: a budget is an argument of EscapeAnalysis
# ---------------------------------------------------------------------------

CORPUS = sorted(EXAMPLES.rglob("*.nml"))


def _answers(results) -> list[tuple]:
    return [
        (r.kind, r.function, r.param_index, r.param_spines, r.result, r.degraded)
        for r in results
    ]


class TestOneFrontDoor:
    @pytest.mark.parametrize(
        "path", CORPUS, ids=lambda p: p.relative_to(EXAMPLES).as_posix()
    )
    def test_unlimited_budget_is_exact_and_a_starved_one_is_worst(self, path):
        source = path.read_text()
        exact = EscapeAnalysis(parse_program(source))
        unlimited = EscapeAnalysis(parse_program(source), budget=AnalysisBudget())
        starved = EscapeAnalysis(
            parse_program(source), budget=AnalysisBudget(deadline_s=0.0)
        )
        for name in exact.function_names():
            if arity(exact.scheme(name).body) == 0:
                continue
            expected = exact.global_all(name)
            assert _answers(unlimited.global_all(name)) == _answers(expected)
            worst = starved.global_all(name)
            assert len(worst) == len(expected)
            for answer, result in zip(worst, expected):
                assert answer.param_spines == result.param_spines
                assert answer.result == Escapement(1, answer.param_spines)
                assert answer.degradation.reason == "deadline-exceeded"

    @pytest.mark.parametrize("call", ["car [[1]]", "id append [1] [2]"])
    def test_local_test_without_a_worst_case_propagates(self, call):
        # The worst case needs the head's parameter types: a primitive head
        # has none, and over-applying `id` runs past them.
        program = parse_program(
            "id y = y;\n" + prelude_source(["append"], "append [1] [2]")
        )
        analysis = EscapeAnalysis(program, budget=AnalysisBudget(deadline_s=0.0))
        with pytest.raises(DeadlineExceeded):
            analysis.local_test(call)

    def test_budget_and_meter_are_exclusive(self, partition_sort):
        with pytest.raises(AnalysisError):
            EscapeAnalysis(
                partition_sort,
                meter=AnalysisBudget().start(),
                budget=AnalysisBudget(),
            )

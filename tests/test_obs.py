"""The observability layer: tracer, metrics, sinks, schema, trace replay.

The centerpiece is the acceptance contract of the subsystem: with tracing
*off* the analysis is bit-identical to an untraced run, and with tracing
*on* the exported JSONL trace alone — no re-run — reproduces the Appendix
A.1 iteration table and the query session's cache accounting.
"""

import io
import json

import pytest

from repro.escape.analyzer import EscapeAnalysis
from repro.lang.prelude import paper_partition_sort, prelude_program
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    MetricsSink,
    RingBufferSink,
    Tracer,
    activate,
    read_trace,
    validate_trace,
)
from repro.obs import tracer as obs
from repro.obs.events import TraceSchemaError, validate_event
from repro.obs.metrics import format_key, metric_key
from repro.obs.profile import (
    cache_stats,
    iteration_table,
    profile_report,
    runtime_stats,
    span_profile,
    worklist_stats,
)
from repro.obs.sinks import replay
from repro.semantics.interp import Interpreter
from repro.semantics.metrics import StorageMetrics


class TestTracer:
    def test_events_are_numbered_and_timestamped(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.emit("solve", cache="hit")
        tracer.emit("solve", cache="miss")
        events = ring.events
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["ts"] >= 0 for e in events)
        assert events[0]["cache"] == "hit"

    def test_spans_nest_and_attribute_self_time(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.emit("solve", cache="miss")
        events = ring.events
        starts = [e for e in events if e["type"] == "span_start"]
        ends = [e for e in events if e["type"] == "span_end"]
        assert [s["name"] for s in starts] == ["outer", "inner"]
        # The inner span and the emitted event are attributed to their parent.
        assert starts[1]["span"] == starts[0]["id"]
        solve = next(e for e in events if e["type"] == "solve")
        assert solve["span"] == starts[1]["id"]
        outer_end = next(e for e in ends if e["name"] == "outer")
        inner_end = next(e for e in ends if e["name"] == "inner")
        assert outer_end["dur_s"] >= inner_end["dur_s"]
        assert outer_end["self_s"] <= outer_end["dur_s"]

    def test_disabled_tracer_collects_nothing(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring], enabled=False)
        tracer.emit("solve", cache="hit")
        with tracer.span("outer") as span:
            assert span is None
        assert ring.events == []

    def test_no_active_tracer_means_noop_module_api(self):
        assert obs.tracing() is None
        obs.emit("solve", cache="hit")  # must not raise
        with obs.span("anything"):
            pass

    def test_activate_installs_and_restores(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        assert obs.tracing() is None
        with activate(tracer):
            assert obs.tracing() is tracer
            obs.emit("solve", cache="hit")
            inner = Tracer(sinks=[])
            with activate(inner):
                assert obs.tracing() is inner
            assert obs.tracing() is tracer
        assert obs.tracing() is None
        assert ring.total == 1


class TestMetricsRegistry:
    def test_labelled_counters(self):
        reg = MetricsRegistry()
        reg.inc("cells", kind="heap")
        reg.inc("cells", kind="heap")
        reg.inc("cells", kind="stack")
        assert reg.counter("cells", kind="heap") == 2
        assert reg.counter("cells", kind="stack") == 1
        assert reg.counter("cells", kind="block") == 0
        snap = reg.snapshot()
        assert snap["cells{kind=heap}"] == 2

    def test_key_format_is_canonical(self):
        assert metric_key("n", b=1, a=2) == ("n", (("a", "2"), ("b", "1")))
        assert format_key(metric_key("n", b=1, a=2)) == "n{a=2,b=1}"
        assert format_key(metric_key("n")) == "n"

    def test_histograms_summarize(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0)
        reg.observe("lat", 3.0)
        snap = reg.snapshot()
        assert snap["lat.count"] == 2
        assert snap["lat.sum"] == 4.0
        assert snap["lat.mean"] == 2.0

    def test_ingest_storage_includes_region_kinds(self):
        metrics = StorageMetrics()
        metrics.heap_allocs = 5
        metrics.region_allocs = 3
        metrics.by_region_kind["stack"] = 3
        reg = MetricsRegistry()
        reg.ingest_storage(metrics)
        snap = reg.snapshot()
        assert snap["storage.heap_allocs"] == 5
        assert snap["storage.region_allocs{kind=stack}"] == 3

    def test_ingest_session(self):
        analysis = EscapeAnalysis(paper_partition_sort())
        analysis.global_all("append")
        reg = MetricsRegistry()
        reg.ingest_session(analysis.stats)
        snap = reg.snapshot()
        assert snap["session.queries"] == analysis.stats.queries
        assert snap["session.eval_steps"] == analysis.stats.eval_steps


class TestStorageMetricsSnapshot:
    def test_snapshot_includes_labelled_region_kinds(self):
        metrics = StorageMetrics()
        metrics.region_allocs = 4
        metrics.by_region_kind = {"stack": 1, "block:b1": 3}
        snap = metrics.snapshot()
        assert snap["region_allocs{kind=stack}"] == 1
        assert snap["region_allocs{kind=block:b1}"] == 3

    def test_diff_tolerates_new_region_kinds(self):
        metrics = StorageMetrics()
        earlier = metrics.snapshot()
        assert "region_allocs{kind=stack}" not in earlier
        metrics.region_allocs = 2
        metrics.by_region_kind["stack"] = 2
        delta = metrics.diff(earlier)
        assert delta["region_allocs"] == 2
        assert delta["region_allocs{kind=stack}"] == 2


class TestSinks:
    def test_jsonl_round_trip(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        tracer = Tracer(sinks=[sink])
        tracer.emit("solve", cache="miss")
        with tracer.span("solve"):
            pass
        sink.close()
        buffer.seek(0)
        events = read_trace(buffer)
        assert validate_trace(events) == 3
        assert events[0]["type"] == "solve"

    def test_jsonl_open_writes_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink.open(path)
        Tracer(sinks=[sink]).emit("cell_reuse", cell=7)
        sink.close()
        events = read_trace(path)
        assert events == [
            {"seq": 0, "ts": events[0]["ts"], "type": "cell_reuse", "cell": 7}
        ]

    def test_ring_buffer_bounds_memory(self):
        ring = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=[ring])
        for _ in range(5):
            tracer.emit("cell_reuse", cell=1)
        assert ring.total == 5
        assert len(ring.events) == 2
        assert ring.events[-1]["seq"] == 4

    def test_metrics_sink_folds_the_stream(self):
        reg = MetricsRegistry()
        sink = MetricsSink(reg)
        tracer = Tracer(sinks=[sink])
        tracer.emit("cell_alloc", cell=1, kind="heap")
        tracer.emit("cell_alloc", cell=2, kind="stack")
        tracer.emit("cell_reclaim", count=4, cause="gc-sweep")
        tracer.emit("solve", cache="hit")
        tracer.emit("scc_solve_finish", names=["f"], cache="miss", iterations=3)
        tracer.emit("degradation", reason="deadline-exceeded", stage="plan")
        assert reg.counter("cells_allocated", kind="heap") == 1
        assert reg.counter("cells_allocated", kind="stack") == 1
        assert reg.counter("cells_reclaimed", cause="gc-sweep") == 4
        assert reg.counter("solves", cache="hit") == 1
        assert reg.counter("fixpoint_iterations") == 3
        assert reg.counter("degradations", reason="deadline-exceeded") == 1

    def test_replay_feeds_recorded_events_to_fresh_sinks(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.emit("cell_alloc", cell=1, kind="heap")
        reg = MetricsRegistry()
        replay(ring.events, MetricsSink(reg))
        assert reg.counter("cells_allocated", kind="heap") == 1


class TestSchema:
    def test_valid_event_passes(self):
        validate_event({"seq": 0, "ts": 0.0, "type": "solve", "cache": "hit"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown event type"):
            validate_event({"seq": 0, "ts": 0.0, "type": "nonsense"})

    def test_missing_payload_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing field"):
            validate_event({"seq": 0, "ts": 0.0, "type": "gc_run", "marked": 1})

    def test_bad_cache_value_rejected(self):
        with pytest.raises(TraceSchemaError, match="cache"):
            validate_event({"seq": 0, "ts": 0.0, "type": "solve", "cache": "maybe"})

    def test_non_monotonic_seq_rejected(self):
        events = [
            {"seq": 1, "ts": 0.0, "type": "cell_reuse", "cell": 1},
            {"seq": 0, "ts": 0.0, "type": "cell_reuse", "cell": 1},
        ]
        with pytest.raises(TraceSchemaError, match="monotonically"):
            validate_trace(events)

    def test_every_emitted_event_conforms(self, tmp_path):
        """The instrumentation itself must respect its own vocabulary."""
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            analysis = EscapeAnalysis(paper_partition_sort())
            for name in ("append", "split", "ps"):
                analysis.global_all(name)
        assert validate_trace(ring.events) > 0


class TestBitIdentityWhenDisabled:
    def test_traced_and_untraced_runs_agree(self):
        """AB4's gate: tracing must observe, never perturb."""
        baseline = EscapeAnalysis(paper_partition_sort())
        for name in ("append", "split", "ps"):
            baseline.global_all(name)

        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            traced = EscapeAnalysis(paper_partition_sort())
            for name in ("append", "split", "ps"):
                traced.global_all(name)

        assert ring.total > 0
        for stat in ("solve_hits", "solve_misses", "scc_hits", "scc_misses",
                     "iterations", "eval_steps", "queries"):
            assert getattr(baseline.stats, stat) == getattr(traced.stats, stat)
        for name in ("append", "split", "ps"):
            base_trace = baseline.last_solved.trace(name)
            live_trace = traced.last_solved.trace(name)
            assert base_trace.fingerprints == live_trace.fingerprints
            assert base_trace.converged == live_trace.converged


class TestTraceReplay:
    """The tentpole acceptance: the JSONL trace alone reproduces the
    Appendix A.1 iteration table and the session's cache accounting."""

    @pytest.fixture
    def traced(self, tmp_path):
        path = tmp_path / "psort.jsonl"
        sink = JsonlSink.open(path)
        analysis = EscapeAnalysis(paper_partition_sort())
        with activate(Tracer(sinks=[sink])):
            for name in ("append", "split", "ps"):
                analysis.global_all(name)
        sink.close()
        return analysis, read_trace(path)

    def test_trace_is_schema_valid(self, traced):
        _, events = traced
        assert validate_trace(events) == len(events)

    def test_iteration_table_replays_appendix_a1(self, traced):
        analysis, events = traced
        table = iteration_table(events)
        assert set(table) == {"append", "split", "ps"}
        for name, row in table.items():
            live = analysis.last_solved.trace(name)
            assert row.iterations == live.iterations
            assert row.converged is live.converged
            assert row.values == [str(fp) for fp in live.fingerprints]
            # A.1: every function converges within 2–3 body evaluations.
            assert 2 <= row.iterations <= 3

    def test_cache_stats_replay_session_accounting(self, traced):
        analysis, events = traced
        replayed = cache_stats(events)
        stats = analysis.stats
        assert replayed["solve_hits"] == stats.solve_hits
        assert replayed["solve_misses"] == stats.solve_misses
        assert replayed["scc_hits"] == stats.scc_hits
        assert replayed["scc_misses"] == stats.scc_misses
        assert replayed["iterations"] == stats.iterations
        assert replayed["queries"] == stats.queries
        assert replayed["eval_steps"] == stats.eval_steps

    def test_profile_report_renders(self, traced):
        _, events = traced
        report = profile_report(events)
        assert "=== profile ===" in report
        assert "cache hit ratios" in report
        assert "append" in report


class TestWorklistEvents:
    """The worklist engine's event vocabulary, and its replay: a trace
    alone reports the per-instruction transfer costs."""

    def test_new_event_types_validate(self):
        for payload in (
            {"type": "ir_lower", "name": "append", "instructions": 12},
            {"type": "worklist_push", "name": "split"},
            {"type": "worklist_pop", "name": "split"},
            {"type": "transfer_eval", "block": "ps", "index": 3, "op": "apply",
             "count": 7},
        ):
            validate_event({"seq": 0, "ts": 0.0, **payload})

    def test_new_event_types_require_their_fields(self):
        for payload in (
            {"type": "ir_lower", "name": "append"},
            {"type": "worklist_push"},
            {"type": "transfer_eval", "block": "ps", "index": 3, "op": "apply"},
        ):
            with pytest.raises(TraceSchemaError, match="missing field"):
                validate_event({"seq": 0, "ts": 0.0, **payload})

    @pytest.fixture
    def worklist_trace(self):
        ring = RingBufferSink(capacity=None)
        analysis = EscapeAnalysis(paper_partition_sort())
        with activate(Tracer(sinks=[ring])):
            for name in ("append", "split", "ps"):
                analysis.global_all(name)
        return analysis, ring.events

    def test_worklist_engine_emits_the_vocabulary(self, worklist_trace):
        _, events = worklist_trace
        types = {e["type"] for e in events}
        assert {"ir_lower", "worklist_push", "worklist_pop",
                "transfer_eval"} <= types
        assert validate_trace(events) == len(events)

    def test_worklist_stats_replay_from_the_trace_alone(self, worklist_trace):
        analysis, events = worklist_trace
        stats = worklist_stats(events)
        # every binding lowered once, with its real instruction count
        assert set(stats.lowered) >= {"append", "split", "ps"}
        assert all(n > 0 for n in stats.lowered.values())
        # each binding is popped at least as often as it is evaluated
        assert stats.pops >= 3
        assert stats.pushes >= 1  # self-recursive bindings re-queue
        assert stats.transfer_evals > 0
        assert stats.transfer_evals <= analysis.stats.worklist_evals
        hottest = stats.hottest(3)
        assert len(hottest) == 3
        assert hottest[0].count >= hottest[1].count >= hottest[2].count

    def test_cache_stats_fold_worklist_evals(self, worklist_trace):
        analysis, events = worklist_trace
        assert cache_stats(events)["worklist_evals"] == (
            analysis.stats.worklist_evals
        )

    def test_profile_report_has_a_worklist_section(self, worklist_trace):
        _, events = worklist_trace
        report = profile_report(events)
        assert "worklist:" in report
        assert "hottest instructions:" in report
        assert "transfer eval(s)" in report


class TestRuntimeEvents:
    def test_interpreter_emits_cell_and_gc_events(self):
        ring = RingBufferSink()
        program = prelude_program(["rev", "iota"], "rev (iota 20)")
        with activate(Tracer(sinks=[ring])):
            interp = Interpreter(auto_gc=True, gc_threshold=10)
            interp.run(program)
        stats = runtime_stats(ring.events)
        assert stats["allocs_heap"] > 0
        assert stats["gc_runs"] >= 1
        spans = span_profile(ring.events)
        assert any(s.name == "run" for s in spans)
        assert validate_trace(ring.events) > 0


class TestOptimizerEvents:
    def test_plan_and_apply_emit_decisions_and_transforms(self):
        from repro.opt.driver import apply_plan, plan_optimizations

        ring = RingBufferSink()
        program = prelude_program(["ps"], "ps [5, 2, 7]")
        with activate(Tracer(sinks=[ring])):
            plan = plan_optimizations(program)
            apply_plan(plan)
        events = ring.events
        decisions = [e for e in events if e["type"] == "decision"]
        assert len(decisions) == len(plan.decisions)
        assert any(e["type"] == "transform_applied" for e in events)
        assert validate_trace(events) > 0


class TestHardenedEngineEvents:
    def test_budget_charge_and_degradation_events(self):
        from repro.robust.budget import AnalysisBudget

        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            analysis = EscapeAnalysis(
                paper_partition_sort(),
                budget=AnalysisBudget(max_fixpoint_iterations=1),
            )
            result = analysis.global_test("append", 1)
        assert result.degraded
        events = ring.events
        degradations = [e for e in events if e["type"] == "degradation"]
        assert degradations and degradations[0]["reason"] == "iteration-budget-exceeded"
        charges = [e for e in events if e["type"] == "budget_charge"]
        assert charges and charges[-1]["iterations"] >= 1


class TestSinkDurability:
    """The crash-durability satellites: JSONL lines reach disk as they are
    written, and the default ring buffer is bounded."""

    class _CrashStream(io.StringIO):
        """Records what had been flushed — the post-crash view of a file
        whose buffered tail was lost."""

        def __init__(self):
            super().__init__()
            self.flushed = ""

        def flush(self):
            self.flushed = self.getvalue()
            super().flush()

    def test_jsonl_flushes_every_line_by_default(self):
        stream = self._CrashStream()
        tracer = Tracer(sinks=[JsonlSink(stream)])
        for cell in range(3):
            tracer.emit("cell_reuse", cell=cell)
        # no close(): the "crashed" file still holds every line written
        events = read_trace(io.StringIO(stream.flushed))
        assert [e["cell"] for e in events] == [0, 1, 2]

    def test_jsonl_flush_interval_bounds_the_lost_tail(self):
        stream = self._CrashStream()
        tracer = Tracer(sinks=[JsonlSink(stream, flush_every=4)])
        for cell in range(6):
            tracer.emit("cell_reuse", cell=cell)
        survived = read_trace(io.StringIO(stream.flushed))
        assert [e["cell"] for e in survived] == [0, 1, 2, 3]
        assert len(stream.getvalue().splitlines()) == 6

    def test_jsonl_close_drains_the_tail(self):
        stream = self._CrashStream()
        sink = JsonlSink(stream, flush_every=100)
        Tracer(sinks=[sink]).emit("cell_reuse", cell=9)
        sink.close()
        assert [e["cell"] for e in read_trace(io.StringIO(stream.flushed))] == [9]

    def test_jsonl_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            JsonlSink(io.StringIO(), flush_every=0)

    def test_ring_buffer_default_is_bounded(self):
        from repro.obs.sinks import DEFAULT_RING_CAPACITY

        ring = RingBufferSink()
        assert ring.capacity == DEFAULT_RING_CAPACITY
        tracer = Tracer(sinks=[ring])
        tracer.emit("cell_reuse", cell=1)
        assert ring.total == 1 and len(ring.events) == 1

    def test_ring_buffer_unbounded_is_explicit(self):
        ring = RingBufferSink(capacity=None)
        assert ring.capacity is None
        tracer = Tracer(sinks=[ring])
        for cell in range(10):
            tracer.emit("cell_reuse", cell=cell)
        assert len(ring.events) == ring.total == 10

    def test_truncated_ring_keeps_exact_total(self):
        ring = RingBufferSink(capacity=3)
        tracer = Tracer(sinks=[ring])
        for cell in range(8):
            tracer.emit("cell_reuse", cell=cell)
        assert ring.total == 8
        assert [e["cell"] for e in ring.events] == [5, 6, 7]

    def test_profile_report_notes_truncation(self):
        ring = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=[ring])
        with tracer.span("solve"):
            pass
        for _ in range(3):
            tracer.emit("cell_reuse", cell=1)
        report = profile_report(ring.events, total=ring.total)
        assert "truncated" in report
        assert f"last {len(ring.events)} of {ring.total}" in report

    def test_profile_report_quiet_when_complete(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.emit("cell_reuse", cell=1)
        assert "truncated" not in profile_report(ring.events, total=ring.total)


class TestStoreEvents:
    def test_store_events_replay_in_cache_stats(self, tmp_path):
        from repro.store import AnalysisStore

        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            EscapeAnalysis(
                paper_partition_sort(), store=AnalysisStore(tmp_path / "s")
            ).global_test("append", 1)
            EscapeAnalysis(
                paper_partition_sort(), store=AnalysisStore(tmp_path / "s")
            ).global_test("append", 1)
        assert validate_trace(ring.events) > 0
        stats = cache_stats(ring.events)
        assert stats["store_writes"] == 3
        assert stats["store_hits"] == 3
        assert stats["store_misses"] == 3
        report = profile_report(ring.events)
        assert "store: 3/6 hit(s) (50%)" in report

    def test_metrics_sink_counts_store_reads_and_writes(self, tmp_path):
        from repro.store import AnalysisStore

        reg = MetricsRegistry()
        with activate(Tracer(sinks=[MetricsSink(reg)])):
            EscapeAnalysis(
                paper_partition_sort(), store=AnalysisStore(tmp_path / "s")
            ).global_test("append", 1)
        assert reg.counter("store.reads", outcome="miss") == 3
        assert reg.counter("store.writes") == 3


class TestResilienceEventVocabulary:
    """The resilience/service event types added with the always-answer
    layer: present in the schema, field-checked, and value-checked."""

    def _event(self, type_, **fields):
        return {"seq": 0, "ts": 0.0, "type": type_, **fields}

    def test_new_event_types_validate(self):
        validate_event(self._event("store_reap", count=2))
        validate_event(self._event("retry", key="a.nml", attempt=1))
        validate_event(self._event("timeout", key="a.nml", deadline_s=0.5))
        validate_event(
            self._event("quarantine", key="a.nml", attempts=3, reason="timeout")
        )
        validate_event(self._event("circuit_state", target="a", state="open"))
        validate_event(
            self._event("worker_restart", key="a.nml", attempt=1, cause="timeout")
        )
        validate_event(
            self._event(
                "serve_request",
                endpoint="analyze",
                status=200,
                degraded=False,
                coalesced=False,
            )
        )

    def test_circuit_state_values_are_checked(self):
        with pytest.raises(TraceSchemaError, match="circuit state"):
            validate_event(
                self._event("circuit_state", target="a", state="exploded")
            )

    def test_new_event_types_require_their_fields(self):
        with pytest.raises(TraceSchemaError, match="missing field"):
            validate_event(self._event("retry", key="a.nml"))
        with pytest.raises(TraceSchemaError, match="missing field"):
            validate_event(self._event("serve_request", endpoint="analyze"))

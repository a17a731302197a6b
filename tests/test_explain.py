"""``repro explain`` (:mod:`repro.obs.explain`): reconstructing a
binding's causal chain — resolution, lowering, worklist activity,
fixpoint ascent, decisions, audit — from a trace alone."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.parser import parse_program
from repro.lang.prelude import prelude_source
from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.explain import (
    EXPLANATION_KEYS,
    explain_binding,
    format_explanation,
    known_bindings,
)

REV = prelude_source(["append", "rev"], "rev [1, 2, 3]")


def _trace_of(program_source, store=None, queries=1):
    """Run ``global_all`` on every binding under a tracer; the events."""
    program = parse_program(program_source)
    ring = RingBufferSink()
    with activate(Tracer(sinks=[ring])):
        for _ in range(queries):
            analysis = EscapeAnalysis(program, store=store)
            for name in program.binding_names():
                analysis.global_all(name)
    return ring.events


class TestExplainBinding:
    def test_fresh_solve_chain(self):
        events = _trace_of(REV)
        explanation = explain_binding(events, "rev")
        assert explanation.found
        assert {"via": "solve"} == {
            k: v for step in explanation.resolution for k, v in step.items()
            if k == "via" and v == "solve"
        }
        assert explanation.lowering is not None
        assert explanation.lowering["instructions"] > 0
        assert explanation.worklist["pushes"] >= 1
        assert explanation.worklist["transfer_evals"] > 0
        # Hottest instructions first.
        counts = [c["count"] for c in explanation.worklist["instructions"]]
        assert counts == sorted(counts, reverse=True)
        assert explanation.fixpoint is not None
        assert explanation.fixpoint["converged"]
        assert explanation.fixpoint["final"] == explanation.fixpoint["values"][-1]

    def test_memory_cache_hit_resolution(self):
        # A pinned local test after the global solve re-walks the SCC DAG
        # and finds every fixpoint already in the in-memory tier.
        program = parse_program(REV)
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            analysis = EscapeAnalysis(program)
            analysis.global_all("rev")
            analysis.local_test("append [1, 2] [3]")
        explanation = explain_binding(ring.events, "rev")
        assert {"via": "memory", "outcome": "hit"} in explanation.resolution

    def test_store_hit_resolution(self, tmp_path):
        from repro.store import AnalysisStore

        _trace_of(REV, store=AnalysisStore(tmp_path / "store"))
        warm = _trace_of(REV, store=AnalysisStore(tmp_path / "store"))
        explanation = explain_binding(warm, "rev")
        store_steps = [s for s in explanation.resolution if s["via"] == "store"]
        assert any(s["outcome"] == "hit" for s in store_steps)
        assert all(s["digest"] for s in store_steps)

    def test_unknown_binding_not_found(self):
        events = _trace_of(REV)
        explanation = explain_binding(events, "nosuch")
        assert not explanation.found
        assert explanation.lowering is None
        assert explanation.fixpoint is None

    def test_known_bindings_lists_trace_names(self):
        events = _trace_of(REV)
        names = known_bindings(events)
        assert "rev" in names and "append" in names
        assert "nosuch" not in names

    def test_degradation_names_its_query(self):
        from repro.robust.budget import AnalysisBudget

        program = parse_program(REV)
        ring = RingBufferSink()
        with activate(Tracer(sinks=[ring])):
            analysis = EscapeAnalysis(program, budget=AnalysisBudget(deadline_s=0.0))
            for result in analysis.global_all("rev"):
                assert result.degraded
        explanation = explain_binding(ring.events, "rev")
        assert explanation.found
        assert explanation.degradations
        assert explanation.degradations[0]["function"] == "rev"
        assert explanation.degradations[0]["reason"] == "deadline-exceeded"

    def test_decisions_and_audit_from_synthetic_events(self):
        events = [
            {
                "seq": 0,
                "ts": 0.0,
                "type": "decision",
                "kind": "reuse",
                "function": "rev",
                "param": 1,
                "justification": "G(rev, 1) = E0",
                "trace_id": "t1",
            },
            {
                "seq": 1,
                "ts": 0.1,
                "type": "transform_applied",
                "kind": "reuse",
                "detail": "rev_reuse1 recycles parameter 1",
            },
            {
                "seq": 2,
                "ts": 0.2,
                "type": "check_rule_fired",
                "rule": "A001",
                "severity": "error",
                "pass": "audit",
                "message": "reuse of rev parameter 1 is unsound",
                "span": "3:1-3:9",
                "context": "rev",
            },
        ]
        explanation = explain_binding(events, "rev")
        assert explanation.found
        assert explanation.decisions == [
            {"kind": "reuse", "param": 1, "justification": "G(rev, 1) = E0"}
        ]
        assert explanation.transforms[0]["outcome"] == "applied"
        assert explanation.audit[0]["rule"] == "A001"
        assert explanation.trace_ids == ["t1"]


class TestExplanationRendering:
    def test_json_schema_is_stable(self):
        events = _trace_of(REV)
        doc = explain_binding(events, "rev").to_json()
        assert tuple(doc) == EXPLANATION_KEYS

    def test_text_rendering_mentions_the_chain(self):
        events = _trace_of(REV)
        text = format_explanation(explain_binding(events, "rev"))
        assert "=== explain: rev ===" in text
        assert "fresh solve" in text
        assert "lowered to IR" in text
        assert "worklist:" in text
        assert "fixpoint ascent" in text
        assert "final fingerprint" in text

    def test_not_found_rendering(self):
        text = format_explanation(explain_binding([], "ghost"))
        assert "no events mention binding 'ghost'" in text


class TestExplainCli:
    @pytest.fixture
    def trace_file(self, tmp_path):
        source = tmp_path / "rev.nml"
        source.write_text(REV)
        out = tmp_path / "trace.jsonl"
        assert main(["trace", str(source), "--out", str(out)]) == 0
        return out

    def test_text_output(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--binding", "rev"]) == 0
        out = capsys.readouterr().out
        assert "=== explain: rev ===" in out
        assert "final fingerprint" in out

    def test_json_output(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--binding", "rev", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The CLI serializes canonically (sorted keys); the full schema is
        # still exactly EXPLANATION_KEYS, order pinned on to_json() itself.
        assert tuple(doc) == tuple(sorted(EXPLANATION_KEYS))
        assert doc["found"] is True
        assert doc["binding"] == "rev"

    def test_unknown_binding_exits_nonzero_with_hint(self, trace_file, capsys):
        assert main(["explain", str(trace_file), "--binding", "nosuch"]) == 1
        captured = capsys.readouterr()
        assert "no events mention" in captured.out
        assert "rev" in captured.err  # the known-bindings hint

    def test_invalid_trace_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "ts": 0.0, "type": "nope"}\n')
        assert main(["explain", str(bad), "--binding", "rev"]) == 1
        assert "invalid trace" in capsys.readouterr().err

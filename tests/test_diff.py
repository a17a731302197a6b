"""The corpus-scale differential regression harness (:mod:`repro.diff`):
artifact byte-stability, lattice-ordered comparison, audit certification,
the planted-regression drill, and the seed-manifested generated corpus."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.diff.compare import (
    DEFAULT_GATE,
    Comparison,
    CompareError,
    compare_trees,
)
from repro.diff.snapshot import (
    _scheme_text,
    snapshot_corpus,
    snapshot_program,
    tree_digest,
    write_artifact,
)
from repro.lang.parser import parse_program
from repro.lang.prelude import prelude_source
from repro.robust.faults import FaultPlan
from repro.types.types import TFun, TList, TVar, TypeScheme

APPEND = prelude_source(["append"], "append [1, 2] [3]")

#: Baseline grants a reuse decision on f's parameter (one DCONS site: the
#: two sibling cons sites share an execution path, so the path-disjointness
#: gate keeps exactly one).  Under ``unsound_reuse_at``, the unsafe site
#: selection keeps BOTH — the donor is recycled twice on one path, the
#: auditor condemns the specialization (AUD004/AUD005), and the snapshot
#: decertifies the decision.
PLANTED = "f l = (cons (car l) nil, cons (car l) nil);\nf [1, 2]\n"


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "append.nml").write_text(APPEND)
    (root / "planted.nml").write_text(PLANTED)
    return root


def _load(tree: Path, rel: str) -> dict:
    return json.loads((tree / (rel + ".json")).read_text())


class TestSnapshotArtifacts:
    def test_artifact_records_all_sections(self, corpus, tmp_path):
        out = tmp_path / "snap"
        report = snapshot_corpus([corpus], out)
        assert report.ok
        doc = _load(out, "append.nml")
        assert doc["ok"] and doc["path"] == "append.nml"
        assert doc["provenance"]["engine"] == "worklist"
        append = doc["bindings"]["append"]
        assert append["is_function"]
        assert append["scheme"].startswith("forall t1.")
        assert append["params"][0]["value"].startswith("<")
        assert "fingerprint" in append
        assert doc["machine"]["digest"].startswith("sha256:")
        assert doc["machine"]["instructions"] == sum(
            doc["machine"]["by_opcode"].values()
        )
        assert isinstance(doc["diagnostics"]["findings"], list)
        assert (out / "_snapshot.json").is_file()

    def test_snapshots_are_byte_identical_across_runs(self, corpus, tmp_path):
        # The headline stability property: two snapshots of the same
        # corpus produce the same bytes — schemes are renumbered (no
        # fresh-variable counter leak), nothing warmth- or seed-dependent
        # is recorded.  Cross-PYTHONHASHSEED identity is pinned end-to-end
        # in test_cli.py via subprocesses.
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_corpus([corpus], a)
        snapshot_corpus([corpus], b)
        assert tree_digest(a) == tree_digest(b)

    def test_warm_store_does_not_change_bytes(self, corpus, tmp_path):
        store = tmp_path / "store"
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_corpus([corpus], a, store_root=store)  # cold
        snapshot_corpus([corpus], b, store_root=store)  # warm
        assert tree_digest(a) == tree_digest(b)

    def test_parallel_jobs_do_not_change_bytes(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_corpus([corpus], a, jobs=1)
        snapshot_corpus([corpus], b, jobs=2)
        assert tree_digest(a) == tree_digest(b)

    def test_bad_file_gets_error_artifact_not_a_hole(self, corpus, tmp_path):
        (corpus / "bad.nml").write_text("this is not ( valid")
        out = tmp_path / "snap"
        snapshot_corpus([corpus], out)
        doc = _load(out, "bad.nml")
        assert doc["ok"] is False and doc["error"]
        index = json.loads((out / "_snapshot.json").read_text())
        assert "bad.nml" in index["failed"]
        assert "bad.nml" in index["files"]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known bug: _scheme_text renumbers through apply_subst, which "
            "follows chains (t3 -> t2 -> t1); fixing it changes the golden "
            "tree_digest in benchmarks/perf/expected.json, so the fix waits "
            "for a benchmark change that regenerates that golden"
        ),
    )
    def test_scheme_text_keeps_distinct_variables_distinct(self):
        # ``f l = nil`` in examples/generated/gen-0004.nml, inferred from a
        # low type-variable counter.
        scheme = TypeScheme((TVar(2), TVar(3)), TFun(TVar(2), TList(TVar(3))))
        assert _scheme_text(scheme) == "forall t1 t2. t1 -> t2 list"

    def test_artifact_path_collision_is_rejected(self, corpus, tmp_path):
        from repro.batch import BatchInputError

        other = tmp_path / "other"
        other.mkdir()
        (other / "append.nml").write_text(APPEND)
        with pytest.raises(BatchInputError, match="collision"):
            snapshot_corpus(
                [corpus / "append.nml", other / "append.nml"], tmp_path / "s"
            )


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestOneSessionPerFile:
    """``snapshot_program`` answers the planner, the rewrites and the audit
    from one analysis session per file (DESIGN decision 20)."""

    def _snapshot_events(self, store) -> list[dict]:
        from repro.obs import RingBufferSink, Tracer, activate

        sink = RingBufferSink(capacity=None)
        program = parse_program((EXAMPLES / "partition_sort.nml").read_text())
        with activate(Tracer([sink])):
            snapshot_program(program, "partition_sort.nml", store=store)
        return sink.events

    def test_a_warm_snapshot_solves_no_scc(self, tmp_path):
        from repro.store import AnalysisStore

        cold = self._snapshot_events(AnalysisStore(tmp_path / "store"))
        assert any(e["type"] == "scc_solve_start" for e in cold)
        warm = self._snapshot_events(AnalysisStore(tmp_path / "store"))
        assert [e for e in warm if e["type"] == "scc_solve_start"] == []

    def test_work_count_gate(self, work_counts):
        # A noise-free gate on the session sharing: one snapshot of the
        # paper's partition sort builds 5 sessions (the planner's, which
        # also serves the first reuse rewrite; one each for the second and
        # third reuse rewrites, the stack rewrite and the audit) and runs
        # type inference 11 times.  Fresh sessions per rewrite took 6
        # sessions and 17 inferences.
        program = parse_program((EXAMPLES / "partition_sort.nml").read_text())
        snapshot_program(program, "partition_sort.nml")
        assert work_counts == {"infer": 11, "sessions": 5}


class TestCompare:
    def test_self_compare_is_empty(self, corpus, tmp_path):
        out = tmp_path / "snap"
        snapshot_corpus([corpus], out)
        comparison = compare_trees(out, out)
        assert comparison.empty
        assert comparison.exit_code() == 0
        assert "no differences" in comparison.render()

    def test_missing_file_in_head_gates(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_corpus([corpus], a)
        snapshot_corpus([corpus], b)
        (b / "append.nml.json").unlink()
        comparison = compare_trees(a, b)
        assert [e["path"] for e in comparison.entries["file_missing_head"]] == [
            "append.nml"
        ]
        assert comparison.exit_code() == 4
        # the mirror direction is benign (a new corpus file is not a loss)
        assert compare_trees(b, a).exit_code() == 3

    def test_new_parse_error_gates(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        snapshot_corpus([corpus], a)
        (corpus / "append.nml").write_text("no longer ( valid")
        snapshot_corpus([corpus], b)
        comparison = compare_trees(a, b)
        assert comparison.entries["file_error_new"][0]["path"] == "append.nml"
        assert comparison.exit_code() == 4

    def test_unreadable_tree_is_an_error(self, tmp_path):
        with pytest.raises(CompareError, match="not a snapshot directory"):
            compare_trees(tmp_path / "ghost", tmp_path / "ghost")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CompareError, match="no artifacts"):
            compare_trees(empty, empty)


class TestCompareCategories:
    """Category semantics on mutated artifacts — in particular that the
    lattice comparison uses the B_e order, not string equality."""

    @pytest.fixture
    def base_doc(self):
        return snapshot_program(parse_program(APPEND), "append.nml")

    def _compare_mutated(self, tmp_path, base_doc, mutate) -> Comparison:
        head_doc = copy.deepcopy(base_doc)
        mutate(head_doc)
        write_artifact(tmp_path / "base", "append.nml", base_doc)
        write_artifact(tmp_path / "head", "append.nml", head_doc)
        return compare_trees(tmp_path / "base", tmp_path / "head")

    def test_dropped_decision_is_lost_with_span(self, tmp_path, base_doc):
        assert base_doc["decisions"], "append must license an optimization"
        dropped = base_doc["decisions"][0]

        comparison = self._compare_mutated(
            tmp_path, base_doc, lambda d: d["decisions"].pop(0)
        )
        [entry] = comparison.entries["decision_lost"]
        assert entry["kind"] == dropped["kind"]
        assert entry["function"] == dropped["function"]
        assert entry["span"] == dropped["span"]
        assert "decision_lost" in comparison.gated()
        assert comparison.exit_code() == 4

    def test_lattice_weakened_uses_the_order(self, tmp_path, base_doc):
        # append's param 1 analyzes non-escaping; raise it to "top spine
        # escapes" in head — strictly above in B_e, so *weakened*.
        def weaken(doc):
            param = doc["bindings"]["append"]["params"][0]
            param["escapes"], param["escape_depth"] = 1, 1
            param["value"] = "<1,1>"

        comparison = self._compare_mutated(tmp_path, base_doc, weaken)
        [entry] = comparison.entries["lattice_weakened"]
        assert entry["binding"] == "append"
        assert comparison.exit_code() == 4

    def test_lattice_strengthened_is_benign(self, tmp_path, base_doc):
        # The mirror mutation: baseline claims an escape, head proves it
        # away.  Strictly below in B_e — improvement, not a regression.
        weak = copy.deepcopy(base_doc)
        param = weak["bindings"]["append"]["params"][0]
        param["escapes"], param["escape_depth"] = 1, 1
        param["value"] = "<1,1>"
        write_artifact(tmp_path / "base", "append.nml", weak)
        write_artifact(tmp_path / "head", "append.nml", base_doc)
        comparison = compare_trees(tmp_path / "base", tmp_path / "head")
        assert comparison.entries["lattice_strengthened"]
        assert not comparison.entries.get("lattice_weakened")
        assert comparison.exit_code() == 3

    def test_new_error_finding_gates_new_hint_does_not(self, tmp_path, base_doc):
        def add_error(doc):
            doc["diagnostics"]["findings"].append(
                {
                    "rule": "AUD003",
                    "severity": "error",
                    "span": "1:1-2",
                    "context": "append_reuse",
                    "message": "planted",
                }
            )

        gated = self._compare_mutated(tmp_path, base_doc, add_error)
        assert gated.entries["diagnostic_new_error"]
        assert gated.exit_code() == 4

        def add_hint(doc):
            doc["diagnostics"]["findings"].append(
                {
                    "rule": "AUD009",
                    "severity": "hint",
                    "span": "1:1-2",
                    "context": "append",
                    "message": "planted",
                }
            )

        benign = self._compare_mutated(tmp_path, base_doc, add_hint)
        assert benign.entries["diagnostic_new"]
        assert not benign.entries.get("diagnostic_new_error")
        assert benign.exit_code() == 3

    def test_resolved_diagnostic_pairs_by_identity_not_message(
        self, tmp_path, base_doc
    ):
        base_doc["diagnostics"]["findings"].append(
            {
                "rule": "AUD009",
                "severity": "hint",
                "span": "1:1-2",
                "context": "append",
                "message": "old wording",
            }
        )

        def reword(doc):
            doc["diagnostics"]["findings"][-1]["message"] = "new wording"

        comparison = self._compare_mutated(tmp_path, base_doc, reword)
        # same (rule, span, context) — a rewording is not churn at all
        assert comparison.empty

    def test_code_change_reports_opcode_delta(self, tmp_path, base_doc):
        def shrink(doc):
            doc["machine"]["digest"] = "sha256:planted"
            doc["machine"]["by_opcode"]["Apply"] -= 2
            doc["machine"]["instructions"] -= 2

        comparison = self._compare_mutated(tmp_path, base_doc, shrink)
        [entry] = comparison.entries["code_changed"]
        assert entry["delta"] == -2
        assert entry["by_opcode"] == {"Apply": -2}
        assert comparison.exit_code() == 3

    def test_gate_override(self, tmp_path, base_doc):
        def shrink(doc):
            doc["machine"]["digest"] = "sha256:planted"
            doc["machine"]["instructions"] -= 1

        head_doc = copy.deepcopy(base_doc)
        shrink(head_doc)
        write_artifact(tmp_path / "base", "append.nml", base_doc)
        write_artifact(tmp_path / "head", "append.nml", head_doc)
        strict = compare_trees(
            tmp_path / "base", tmp_path / "head", gate=frozenset({"code_changed"})
        )
        assert strict.exit_code() == 4
        assert "code_changed" in strict.gated()


class TestPlantedRegression:
    """The end-to-end drill ISSUE 9 asks for: plant an unsound-reuse fault
    in head, snapshot both, and the differ must report the lost decision
    (with its span), the new audit errors, and exit nonzero."""

    def test_fault_decertifies_and_compare_gates(self, corpus, tmp_path):
        base, head = tmp_path / "base", tmp_path / "head"
        # Snapshot only the planted file: the fault plan's ordinals count
        # per file attempt, and ``unsound_reuse_at=1`` would plant a fault
        # in every corpus file that specializes a reuse.
        planted = corpus / "planted.nml"
        snapshot_corpus([planted], base)
        snapshot_corpus([planted], head, fault_plan=FaultPlan(unsound_reuse_at=1))

        baseline = _load(base, "planted.nml")
        reuse = next(d for d in baseline["decisions"] if d["kind"] == "reuse")
        assert reuse["function"] == "f" and reuse["span"]

        faulted = _load(head, "planted.nml")
        [decert] = faulted["decertified"]
        assert set(decert["condemned_by"]) == {"AUD004", "AUD005"}

        comparison = compare_trees(base, head)
        [entry] = comparison.entries["decision_decertified"]
        assert entry["function"] == "f"
        assert entry["span"] == reuse["span"]
        assert entry["condemned_by"] == ["AUD004", "AUD005"]
        assert comparison.entries["diagnostic_new_error"]
        assert comparison.exit_code() == 4
        assert "decision_decertified" in comparison.gated()
        assert "FAIL" in comparison.render()


MANIFEST_SUBSET = 12


@pytest.mark.skipif(
    not Path("examples/generated/MANIFEST.json").is_file(),
    reason="committed generated corpus not present",
)
class TestGeneratedCorpusProperty:
    """Property over the committed corpus: for every generated program,
    snapshotting twice yields byte-identical artifacts and an empty
    self-compare (a seed subset keeps the suite fast; CI runs all 200)."""

    def test_self_compare_of_generated_subset_is_empty(self, tmp_path):
        manifest = json.loads(Path("examples/generated/MANIFEST.json").read_text())
        subset = tmp_path / "subset"
        subset.mkdir()
        for entry in manifest["programs"][:MANIFEST_SUBSET]:
            source = Path("examples/generated") / entry["file"]
            (subset / entry["file"]).write_text(source.read_text())
        a, b = tmp_path / "a", tmp_path / "b"
        assert snapshot_corpus([subset], a).ok
        assert snapshot_corpus([subset], b).ok
        assert tree_digest(a) == tree_digest(b)
        comparison = compare_trees(a, b)
        assert comparison.empty and comparison.exit_code() == 0
        assert comparison.compared == MANIFEST_SUBSET


class TestGeneratedCorpusManifest:
    def test_generate_then_rematerialize_round_trips(self, tmp_path):
        from repro.diff.corpus import generate_corpus, load_manifest

        out = tmp_path / "gen"
        manifest = generate_corpus(out, count=6)
        assert manifest["count"] == 6
        files = sorted(p.name for p in out.glob("*.nml"))
        assert files == [e["file"] for e in manifest["programs"]]
        # second call takes the reproducible path: same manifest, same bytes
        before = tree_digest(out)
        assert generate_corpus(out, count=6) == load_manifest(out)
        assert tree_digest(out) == before

    def test_manifest_drift_fails_loudly(self, tmp_path):
        from repro.canonical import canonical_bytes
        from repro.diff.corpus import CorpusDriftError, generate_corpus

        out = tmp_path / "gen"
        manifest = generate_corpus(out, count=3)
        manifest["programs"][1]["sha256"] = "0" * 64
        (out / "MANIFEST.json").write_bytes(canonical_bytes(manifest))
        with pytest.raises(CorpusDriftError, match="gen-0001.nml"):
            generate_corpus(out, count=3)

    def test_generated_programs_parse_and_snapshot(self, tmp_path):
        from repro.diff.corpus import generate_corpus

        out = tmp_path / "gen"
        generate_corpus(out, count=4)
        report = snapshot_corpus([out], tmp_path / "snap")
        assert report.ok and len(report.reports) == 4


class TestDiffCli:
    def test_snapshot_compare_roundtrip(self, corpus, tmp_path, capsys):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["diff", "snapshot", str(corpus), "--out", a, "--no-store"]) == 0
        assert main(["diff", "snapshot", str(corpus), "--out", b, "--no-store"]) == 0
        capsys.readouterr()
        assert main(["diff", "compare", a, b]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_compare_json_is_canonical(self, corpus, tmp_path, capsys):
        a = str(tmp_path / "a")
        assert main(["diff", "snapshot", str(corpus), "--out", a, "--no-store"]) == 0
        capsys.readouterr()
        assert main(["diff", "compare", a, a, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        assert doc["gate"] == sorted(DEFAULT_GATE)

    def test_snapshot_store_defaults_to_the_corpus(self, corpus, tmp_path, capsys):
        # The same default as ``repro batch``: <first path>/.repro-store.
        out = str(tmp_path / "snap")
        assert main(["diff", "snapshot", str(corpus), "--out", out]) == 0
        assert (corpus / ".repro-store").is_dir()
        store = tmp_path / "store"
        out2 = str(tmp_path / "snap2")
        args = ["diff", "snapshot", str(corpus), "--out", out2, "--store", str(store)]
        assert main(args) == 0
        assert store.is_dir()

    def test_snapshot_bad_input_exits_2(self, tmp_path, capsys):
        code = main(
            ["diff", "snapshot", str(tmp_path / "ghost"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_compare_unknown_category_exits_2(self, tmp_path, capsys):
        code = main(["diff", "compare", "x", "y", "--fail-on", "bogus"])
        assert code == 2
        assert "unknown categories" in capsys.readouterr().err

    def test_compare_missing_tree_exits_1(self, tmp_path, capsys):
        code = main(
            ["diff", "compare", str(tmp_path / "nope"), str(tmp_path / "nope")]
        )
        assert code == 1

    def test_gen_corpus_cli(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["diff", "gen-corpus", "--out", out, "--count", "3"]) == 0
        assert "3 generated program(s)" in capsys.readouterr().out
        assert (Path(out) / "MANIFEST.json").is_file()

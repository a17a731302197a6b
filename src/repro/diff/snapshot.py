"""Snapshot: one canonical JSON artifact per corpus file.

An artifact is everything a later revision could regress, in comparable
form:

* per-binding **lattice fingerprints** (the extensional image the
  Kleene-reference differential suite already compares) and structured
  lattice **values** ``{escapes, spines}`` so the differ can apply the
  ``B_e`` order rather than string equality;
* **sharing classes** from the worklist evaluator's union-find partition;
* per-binding **heap-liveness facts** (:mod:`repro.analysis.heap_liveness`):
  the interprocedural summaries and the joined per-binder use depths the
  liveness-directed collector budgets on — a depth that goes *up* (or a
  fact set that degrades to ``⊤``) is a weakening the differ gates on;
* **optimization decisions** with justification, obligation, and span —
  but only *audit-certified* ones: a decision whose specialization the
  independent auditor (:mod:`repro.check.audit`) condemns is recorded
  under ``decertified`` instead, so an unsound compiler shows up as a
  *lost* decision, exactly the regression class the differ gates on;
* **checker findings** by rule ID with spans and contexts;
* the **machine-code** listing digest and per-opcode instruction counts
  of the optimized program;
* **provenance**: the evaluator (always ``"worklist"``), store digest
  version, artifact schema version, and the chain bound ``d``.

Byte stability is load-bearing: every list is explicitly sorted, every
emission goes through :mod:`repro.canonical`, and nothing
seed-, time-, or warmth-dependent (session stats, timings) is recorded —
snapshotting the same tree twice under different ``PYTHONHASHSEED``s, or
against a cold vs. warm store, must produce identical bytes.

``snapshot_corpus`` fans the work across the supervised ``repro.batch``
workers (crash containment, per-file timeouts, store read-through), so a
warm corpus snapshot is cheap and a poison file cannot sink the run.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

# Everything the worker body runs is imported here, before the batch
# supervisor's first fork, so each worker inherits it (see repro.batch).
from repro.analysis.heap_liveness import degraded_facts
from repro.batch import BatchInputError, FileReport, collect_inputs, run_batch
from repro.canonical import canonical_bytes, canonical_dumps
from repro.check import check_program
from repro.diff import ARTIFACT_SCHEMA, ARTIFACT_SUFFIX, INDEX_NAME
from repro.escape.abstract import fingerprint
from repro.escape.analyzer import EscapeAnalysis
from repro.lang.errors import NO_SPAN, AnalysisError, NmlError
from repro.lang.parser import parse_program
from repro.machine.compiler import compile_program
from repro.machine.instructions import disassemble, instruction_counts
from repro.opt.driver import apply_plan, plan_optimizations
from repro.query import DIGEST_VERSION
from repro.store import AnalysisStore
from repro.types.types import TFun, TList, TProd, TVar, TypeScheme, apply_subst, arity


def _span_text(span) -> "str | None":
    return None if span == NO_SPAN else str(span)


def _scheme_text(scheme) -> str:
    """Render a type scheme with inference variables renumbered by first
    occurrence in the body — ``str(scheme)`` would leak the process-global
    fresh-variable counter into artifacts (same program, different bytes
    per run), the exact instability :func:`repro.types.types
    .type_fingerprint` exists to kill for cache keys.

    Known bug: :func:`apply_subst` follows chains, so when the scheme's own
    ids are small a renumbered variable is renamed again (``t3 ↦ t2 ↦ t1``)
    and two variables print as one; a strict xfail in ``tests/test_diff.py``
    holds the intended text until the golden snapshot digest is renewed."""
    names: dict[TVar, TVar] = {}

    def collect(t) -> None:
        if isinstance(t, TVar):
            if t not in names:
                names[t] = TVar(len(names) + 1)
        elif isinstance(t, TList):
            collect(t.element)
        elif isinstance(t, TFun):
            collect(t.arg)
            collect(t.result)
        elif isinstance(t, TProd):
            collect(t.fst)
            collect(t.snd)

    collect(scheme.body)
    for var in scheme.vars:
        if var not in names:
            names[var] = TVar(len(names) + 1)
    quantified = tuple(
        sorted((names[v] for v in scheme.vars), key=lambda v: v.id)
    )
    return str(TypeScheme(quantified, apply_subst(scheme.body, dict(names))))


def snapshot_program(program, rel: str, store=None, d: "int | None" = None,
                     max_iterations: "int | None" = None) -> dict:
    """The artifact document for one parsed program.

    Never raises for analysis-stage failures on a well-formed program:
    per-binding analysis errors are recorded in the binding's own entry.
    (Parse/type failures are the caller's to turn into an error artifact —
    see :func:`error_artifact`.)
    """
    analysis = EscapeAnalysis(program, d=d, max_iterations=max_iterations, store=store)
    solved = analysis.solve(None)
    chain = solved.evaluator.chain

    bindings: dict[str, dict] = {}
    for name in program.binding_names():
        entry: dict = {}
        try:
            scheme = analysis.scheme(name)
            ty = analysis.binding_type(name, solved)
            entry["scheme"] = _scheme_text(scheme)
            entry["fingerprint"] = str(fingerprint(solved.env[name], ty, chain))
            entry["is_function"] = bool(arity(scheme.body))
            if entry["is_function"]:
                params = []
                for result in analysis.global_all(name):
                    params.append(
                        {
                            "index": result.param_index,
                            "param_spines": result.param_spines,
                            "value": str(result.result),
                            "escapes": result.result.escapes,
                            "escape_depth": result.result.spines,
                            "escaping_spines": result.escaping_spines,
                            "non_escaping_spines": result.non_escaping_spines,
                        }
                    )
                entry["params"] = params
        except (AnalysisError, NmlError) as error:
            entry["error"] = str(error)
        bindings[name] = entry

    sharing = {
        name: sorted(members)
        for name, members in analysis.sharing_classes().items()
    }

    # Heap-liveness facts ride the session's SCC-memoized summaries, so a
    # warm snapshot decodes exactly what the cold one computed — the
    # section is byte-stable across store warmth, hash seeds, and --jobs.
    try:
        liveness = analysis.heap_liveness().to_json()
    except Exception:
        liveness = degraded_facts(program, cap=solved.d + 1).to_json()

    # One session per file: the rewrites and the audit ask their questions
    # through sessions derived from the planner's, so every fact whose
    # inputs fingerprint identically is a cache (or store) hit.
    plan = plan_optimizations(program, session=analysis.session)
    outcome = apply_plan(plan, session=analysis.session)
    optimized = outcome.program
    report = check_program(optimized, path=rel, session=analysis.session)

    # Audit certification: a reuse decision stands only if the independent
    # auditor found no error-severity fact against its specialization
    # (context == "<function>_reuse", the name ``apply_plan`` introduces).
    condemned: dict[str, list[str]] = {}
    for diagnostic in report.errors:
        if diagnostic.context.endswith("_reuse"):
            condemned.setdefault(diagnostic.context, []).append(diagnostic.rule.id)

    decisions: list[dict] = []
    decertified: list[dict] = []
    for decision in plan.decisions:
        record = {
            "kind": decision.kind,
            "function": decision.function,
            "param_index": decision.param_index,
            "justification": decision.justification,
            "obligation": decision.obligation,
            "span": _span_text(decision.span),
        }
        rules = (
            sorted(set(condemned.get(f"{decision.function}_reuse", [])))
            if decision.kind == "reuse"
            else []
        )
        if rules:
            record["condemned_by"] = rules
            decertified.append(record)
        else:
            decisions.append(record)
    decision_sort = lambda r: (  # noqa: E731
        r["kind"], r["function"], r["param_index"], r["span"] or ""
    )
    decisions.sort(key=decision_sort)
    decertified.sort(key=decision_sort)

    findings = sorted(
        (
            {
                "rule": diag.rule.id,
                "severity": diag.severity.value,
                "span": diag.span_text(),
                "context": diag.context,
                "message": diag.message,
            }
            for diag in report.diagnostics
        ),
        key=lambda f: (f["rule"], f["span"] or "", f["context"], f["message"]),
    )
    rule_counts: dict[str, int] = {}
    for finding in findings:
        rule_counts[finding["rule"]] = rule_counts.get(finding["rule"], 0) + 1

    code = compile_program(optimized)
    listing = disassemble(code)

    return {
        "schema": ARTIFACT_SCHEMA,
        "path": rel,
        "ok": True,
        "provenance": {
            "engine": "worklist",
            "digest_version": DIGEST_VERSION,
            "artifact_schema": ARTIFACT_SCHEMA,
            "d": solved.d,
        },
        "bindings": bindings,
        "sharing": sharing,
        "liveness": liveness,
        "decisions": decisions,
        "decertified": decertified,
        "optimize_log": outcome.log,
        "diagnostics": {
            "counts": report.counts(),
            "by_rule": rule_counts,
            "findings": findings,
            "pass_errors": dict(sorted(report.pass_errors.items())),
        },
        "machine": {
            "digest": "sha256:" + hashlib.sha256(listing.encode("utf-8")).hexdigest(),
            "instructions": sum(instruction_counts(code).values()),
            "by_opcode": instruction_counts(code),
        },
    }


def error_artifact(rel: str, error: str, quarantined: bool = False) -> dict:
    """The artifact for a file that produced no analysis: the failure *is*
    the recorded fact, so a file that starts failing shows up in compare as
    a lost file, not a hole in the tree."""
    doc = {"schema": ARTIFACT_SCHEMA, "path": rel, "ok": False, "error": error}
    if quarantined:
        doc["quarantined"] = True
    return doc


def artifact_path(out_dir: "str | Path", rel: str) -> Path:
    return Path(out_dir) / (rel + ARTIFACT_SUFFIX)


def write_artifact(out_dir: "str | Path", rel: str, document: dict) -> Path:
    target = artifact_path(out_dir, rel)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(canonical_bytes(document))
    return target


def snapshot_one(
    path: str,
    store_root: "str | None",
    d: "int | None" = None,
    max_iterations: "int | None" = None,
    *,
    out_dir: str,
    rels: "dict[str, str]",
):
    """Worker body for ``repro diff snapshot``: snapshot the file at
    ``path`` into ``out_dir`` under its corpus-relative key ``rels[path]``.
    :func:`snapshot_corpus` binds every argument but ``path``, so the body
    rides the batch supervision as a callable of the path.

    A snapshot always audits (certification needs it) and never degrades
    (a ``W^τ`` fallback would depend on machine load, and artifacts must
    be byte-stable), so it takes no ``check`` or deadline option.
    """
    rel = rels[path]
    try:
        program = parse_program(Path(path).read_text())
        # run_batch swept the store's stale temp files once, before any
        # worker started.
        store = AnalysisStore(store_root, reap=False) if store_root else None
        document = snapshot_program(
            program, rel, store=store, d=d, max_iterations=max_iterations
        )
        write_artifact(out_dir, rel, document)
        # The checker's findings live in the artifact (they are *facts* to
        # diff), deliberately not on the report: pre-existing corpus
        # findings must not turn a successful snapshot into exit 4.
        return FileReport(
            path=str(path),
            ok=True,
            d=document["provenance"]["d"],
            functions=sum(
                1 for b in document["bindings"].values() if b.get("is_function")
            ),
        )
    except Exception as error:  # a bad corpus file must not sink the run
        detail = f"{type(error).__name__}: {error}"
        write_artifact(out_dir, rel, error_artifact(rel, detail))
        return FileReport(path=str(path), ok=False, error=detail)


def corpus_relative(inputs, roots) -> dict[str, str]:
    """Map each (resolved) input path to its corpus-relative artifact key:
    relative to the first directory root containing it, else the bare file
    name.  Colliding keys are an error — two artifacts must never share a
    slot."""
    resolved_roots = [Path(r).resolve() for r in roots]
    rels: dict[str, str] = {}
    used: dict[str, str] = {}
    for item in inputs:
        path = Path(item)
        rel: "str | None" = None
        for root in resolved_roots:
            if root.is_dir():
                try:
                    rel = path.relative_to(root).as_posix()
                    break
                except ValueError:
                    continue
        if rel is None:
            rel = path.name
        if rel in used and used[rel] != str(path):
            raise BatchInputError(
                f"artifact path collision: {used[rel]} and {path} both map "
                f"to {rel!r}; snapshot them from a common root directory"
            )
        used[rel] = str(path)
        rels[str(path)] = rel
    return rels


def snapshot_corpus(
    paths,
    out_dir: "str | Path",
    jobs: int = 1,
    store_root: "str | Path | None" = None,
    d: "int | None" = None,
    max_iterations: "int | None" = None,
    timeout_s: "float | None" = None,
    fault_plan=None,
):
    """Snapshot a corpus into ``out_dir`` through the supervised batch
    machinery; returns the :class:`~repro.batch.BatchReport`.

    Every input gets an artifact: worker-written on success or contained
    failure, driver-written for quarantined files (a crashed-out worker
    leaves no artifact behind).  The tree also carries an ``_snapshot.json``
    index naming the evaluator and the artifact set.
    """
    inputs = collect_inputs(paths)
    rels = corpus_relative(inputs, paths)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    root = str(store_root) if store_root is not None else None
    report = run_batch(
        paths,
        store_root=root,
        jobs=jobs,
        timeout_s=timeout_s,
        fault_plan=fault_plan,
        worker=functools.partial(
            snapshot_one,
            store_root=root,
            d=d,
            max_iterations=max_iterations,
            out_dir=str(out),
            rels=rels,
        ),
    )
    for file_report in report.reports:
        rel = rels.get(file_report.path)
        if rel is None:
            continue
        if file_report.quarantined and not artifact_path(out, rel).exists():
            write_artifact(
                out, rel, error_artifact(rel, file_report.error, quarantined=True)
            )
    index = {
        "schema": ARTIFACT_SCHEMA,
        "engine": "worklist",
        "files": sorted(rels.values()),
        "failed": sorted(
            rels[r.path] for r in report.reports if not r.ok and r.path in rels
        ),
    }
    (out / INDEX_NAME).write_bytes(canonical_bytes(index))
    return report


def tree_digest(out_dir: "str | Path") -> str:
    """One hash over a whole artifact tree (file names + bytes), for quick
    byte-identity assertions across snapshot runs."""
    out = Path(out_dir)
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(canonical_dumps(path.relative_to(out).as_posix()).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()

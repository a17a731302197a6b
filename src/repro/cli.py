"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``run``      — evaluate a program, print its result and storage metrics
* ``report``   — the full paper-style analysis report (A.1 + A.2)
* ``analyze``  — global escape tests for one function (or a local test)
* ``observe``  — ground-truth escapement of one call on the instrumented heap
* ``spines``   — the Figure 1 spine decomposition of a list literal
* ``optimize`` — apply an optimization and show the transformed program
* ``trace``    — run the analysis under the tracer and emit the JSONL trace;
  also ``trace merge`` (combine per-process shards into one causally
  ordered trace) and ``trace validate`` (schema-check trace files,
  nonzero exit on an invalid one)
* ``explain``  — reconstruct the causal chain behind one binding's result
  from a trace alone: store hit/miss, worklist activity, fixpoint ascent,
  final fingerprint, optimization decisions, audit rules fired
* ``batch``    — analyze a corpus of ``.nml`` files in parallel under the
  resilience supervisor (per-file timeouts, crash restarts, quarantine),
  sharing solved SCC fixpoints through a persistent on-disk store
* ``check``    — the static checker (:mod:`repro.check`): lint, the
  optimization auditor, and the machine-code verifier
* ``diff``     — the corpus-scale differential regression harness
  (:mod:`repro.diff`): ``diff snapshot`` writes one canonical JSON
  artifact per corpus file, ``diff compare`` reports a categorized,
  lattice-ordered diff of two snapshot trees with per-category gating,
  ``diff gen-corpus`` materializes the committed generated corpus from
  its seed manifest
* ``serve``    — the always-answer analysis daemon (:mod:`repro.serve`):
  analyze/check/optimize over HTTP/JSON with degraded-answer responses,
  in-flight coalescing, and a ``/metrics`` scrape

Programs are read from a file path or, with ``-e``, from the argument
itself.  Observer arguments are Python literals (``'[1, 2, 3]'``) or nml
source prefixed with ``@`` for function arguments (``@pair``).

Observability: ``run``/``report``/``analyze``/``optimize``/``batch``
accept ``--trace FILE`` (write a JSONL event trace; for ``batch`` the
per-worker shards are merged into one causally ordered trace) and
``--profile`` (print a profile report to stderr when the command
finishes); ``report``, ``analyze`` and ``observe`` accept ``--json`` for
machine-readable output.

Every command runs with the **flight recorder** on: a bounded in-memory
ring of recent events that auto-dumps a validated black-box trace on
degradation, quarantine, worker crash, or checker error whenever a dump
directory is configured (``--flight-dir`` or ``REPRO_FLIGHT_DIR``).
"""

from __future__ import annotations

import argparse
import ast as python_ast
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.canonical import canonical_dumps, canonical_json
from repro.lang.errors import NmlError
from repro.options import COLLECTORS

if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import Program

#: The exit-code taxonomy, shared by every subcommand:
#:
#: * 0 — ok: the command did what was asked;
#: * 1 — error: bad input, analysis failure, or crash;
#: * 2 — usage: the arguments themselves are wrong (a nonexistent input
#:   path, a non-``.nml`` file, an unknown diff category) — rejected
#:   before any work starts, matching the shells' usage-error convention;
#: * 3 — degraded: answered, but via a sound W^tau fallback (so scripts can
#:   tell a degraded answer from a hard failure);
#: * 4 — findings: the static checker completed and found error-severity
#:   diagnostics (the checked artifact is unsound; the checker itself is
#:   fine — distinct from 1 so CI can gate on findings specifically).
#:   ``diff compare`` reuses 3/4: benign churn only → 3, gated
#:   regressions → 4.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_FINDINGS = 4

_EXIT_CODE_HELP = (
    "exit codes: 0 ok; 1 error (bad input or crash); 2 usage "
    "(invalid arguments or input paths); 3 degraded "
    "(answered via the sound W^tau fallback); 4 findings "
    "(the static checker found error-severity diagnostics)"
)


def _load_program(args: argparse.Namespace) -> Program:
    from repro.lang.parser import parse_program

    if args.expr:
        return parse_program(args.program)
    return parse_program(Path(args.program).read_text())


def _add_program_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="path to an nml file (or source with -e)")
    parser.add_argument(
        "-e", "--expr", action="store_true", help="treat PROGRAM as source text"
    )


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--robust",
        action="store_true",
        help="run through the hardened engine (degrade to W^tau, never crash)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, help="wall-clock budget (implies --robust)"
    )
    parser.add_argument(
        "--max-iterations", type=int, help="fixpoint iteration budget (implies --robust)"
    )
    parser.add_argument(
        "--max-steps", type=int, help="abstract-evaluation step budget (implies --robust)"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat a degraded (non-exact) answer as a hard error (exit 1)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL event trace of everything the command does",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a profile report (spans, caches, fixpoints) to stderr",
    )


def _add_gc_arg(parser: argparse.ArgumentParser, help_prefix: str = "") -> None:
    """The ``--gc [COLLECTOR]`` flag: bare ``--gc`` keeps the historical
    mark-sweep default, ``--gc liveness|copying`` picks a zoo member."""
    parser.add_argument(
        "--gc",
        nargs="?",
        const="mark-sweep",
        default=None,
        choices=COLLECTORS,
        metavar="COLLECTOR",
        help=f"{help_prefix}enable GC; optionally pick the collector "
        f"({', '.join(COLLECTORS)}; bare --gc means mark-sweep)",
    )


def _liveness_budgets(program) -> "dict[str, int | None] | None":
    """Per-binder live-depth budgets for the liveness collector; ``None``
    (full marking) when the static analysis cannot promise anything."""
    from repro.analysis.heap_liveness import analyze_program

    facts = analyze_program(program)
    if facts.degraded:
        print(
            "warning: heap-liveness analysis degraded; the liveness "
            "collector falls back to full-reachability marking",
            file=sys.stderr,
        )
        return None
    return facts.budget_map()


def _runtime_gc_kwargs(args: argparse.Namespace, program) -> dict:
    """Collector construction kwargs shared by ``run`` and ``trace``."""
    collector = args.gc or "mark-sweep"
    return dict(
        auto_gc=args.gc is not None,
        collector=collector,
        liveness=(
            _liveness_budgets(program) if collector == "liveness" else None
        ),
    )


@contextmanager
def _obs_scope(args: argparse.Namespace):
    """Activate a tracer around a command when ``--trace``/``--profile``
    asked for one.  Commands without those flags pass through untouched
    (`getattr` defaults), as do ``trace`` and ``batch``, which own their
    tracers (``batch`` must merge per-worker shards after the run)."""
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    owns_tracer = getattr(args, "handler", None) in (_cmd_trace, _cmd_batch)
    if (not trace_path and not profile) or owns_tracer:
        yield
        return

    from repro.obs import JsonlSink, RingBufferSink, Tracer, activate
    from repro.obs.flight import recorder
    from repro.obs.profile import profile_report

    sinks: list = []
    jsonl = JsonlSink.open(trace_path) if trace_path else None
    if jsonl is not None:
        sinks.append(jsonl)
    ring = RingBufferSink() if profile else None
    if ring is not None:
        sinks.append(ring)
    flight = recorder()
    if flight is not None:
        sinks.append(flight)
    try:
        with activate(Tracer(sinks=sinks)):
            yield
    finally:
        if jsonl is not None:
            jsonl.close()
        if ring is not None:
            print(
                profile_report(ring.events, total=ring.total),
                end="",
                file=sys.stderr,
            )


@contextmanager
def _flight_scope(args: argparse.Namespace):
    """The always-on flight recorder: installed process-wide and kept
    recording for the whole command via a tracer of its own.  Inner
    scopes (``_obs_scope``, ``trace``, ``batch``) activate richer tracers
    that *include* the recorder, so the black box never goes dark."""
    from repro.obs import Tracer, activate
    from repro.obs.flight import FlightRecorder, dump_dir_from_env, install, recorder

    dump_dir = getattr(args, "flight_dir", None) or dump_dir_from_env()
    previous = recorder()
    flight = install(FlightRecorder(dump_dir=dump_dir))
    try:
        with activate(Tracer(sinks=[flight])):
            yield flight
    finally:
        # A later command or library call in this process (a batch reads
        # the installed recorder's directory) must not inherit this one.
        install(previous)


def _budget_from(args: argparse.Namespace):
    from repro.robust.budget import AnalysisBudget

    return AnalysisBudget(
        deadline_s=args.deadline_ms / 1000.0 if args.deadline_ms is not None else None,
        max_fixpoint_iterations=args.max_iterations,
        max_eval_steps=args.max_steps,
    )


def _wants_robust(args: argparse.Namespace) -> bool:
    return bool(
        args.robust
        or args.deadline_ms is not None
        or args.max_iterations is not None
        or args.max_steps is not None
    )


def _finish_degraded(args: argparse.Namespace, messages: list[str]) -> int:
    if not messages:
        return EXIT_OK
    if args.strict:
        for message in messages:
            print(f"error: degraded: {message}", file=sys.stderr)
        return EXIT_ERROR
    for message in messages:
        print(f"warning: degraded: {message}", file=sys.stderr)
    return EXIT_DEGRADED


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args)
    gc_kwargs = _runtime_gc_kwargs(args, program)
    if args.machine:
        from repro.machine.machine import Machine

        runtime = Machine(
            gc_threshold=args.gc_threshold, sanitize=args.sanitize, **gc_kwargs
        )
    else:
        from repro.semantics.interp import Interpreter

        runtime = Interpreter(
            gc_threshold=args.gc_threshold, sanitize=args.sanitize, **gc_kwargs
        )
    value = runtime.run(program)
    print(runtime.to_python(value))
    if args.metrics:
        for key, count in runtime.metrics.snapshot().items():
            if count:
                print(f"  {key}: {count}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    program = _load_program(args)
    if args.json:
        from repro.escape.report import report_json

        print(canonical_json(report_json(program, include_stats=args.stats)))
        return 0
    from repro.escape.report import analysis_report

    print(analysis_report(program, include_stats=args.stats), end="")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.escape.analyzer import EscapeAnalysis
    from repro.escape.report import result_dict, robust_result_dict, stats_dict

    program = _load_program(args)
    robust = _wants_robust(args)
    analysis = EscapeAnalysis(
        program,
        store=_store_from(args),
        budget=_budget_from(args) if robust else None,
    )
    # Exact mode lists refused functions under "errors"; robust mode lists
    # them among the results, the way serve's /analyze answers.
    doc: dict = {"mode": "robust" if robust else "exact", "results": []}
    refused = doc["results"] if robust else doc.setdefault("errors", [])
    degraded: list[str] = []

    def show(result) -> None:
        if args.json:
            doc["results"].append(
                robust_result_dict(result) if robust else result_dict(result)
            )
        elif result.degraded:
            print(
                f"{result}  —  {result.describe()}  "
                f"[degraded: {result.degradation.reason}]"
            )
        else:
            print(f"{result}  —  {result.describe()}")
        if result.degraded:
            degraded.append(f"{result.function}/{result.param_index}: {result.degradation}")

    if args.local:
        for result in analysis.local_test(args.local):
            show(result)
    else:
        names = [args.function] if args.function else list(program.binding_names())
        for name in names:
            try:
                results = analysis.global_all(name)
            except NmlError as error:
                if args.json:
                    refused.append({"function": name, "error": error.message})
                else:
                    print(f"{name}: {error.message}")
                continue
            for result in results:
                show(result)
            if args.sharing and not args.json:
                from repro.analysis.sharing import sharing_global

                try:
                    print(f"  {sharing_global(analysis, name).describe()}")
                except NmlError:
                    pass
    if args.json:
        if robust:
            doc["degraded"] = bool(degraded)
        if args.stats:
            doc["stats"] = stats_dict(analysis.stats)
        print(canonical_json(doc))
    elif args.stats:
        print(f"-- stats: {analysis.stats.summary()}")
    return _finish_degraded(args, degraded)


def _parse_observer_arg(text: str):
    from repro.escape.exact import Source

    if text.startswith("@"):
        return Source(text[1:])
    return python_ast.literal_eval(text)


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.escape.exact import observe_escape

    program = _load_program(args)
    call_args = [_parse_observer_arg(a) for a in args.args]
    observed = observe_escape(program, args.function, call_args, args.index)
    if args.json:
        print(
            canonical_json(
                {
                    "function": args.function,
                    "param_index": args.index,
                    "escapement": str(observed.as_escapement()),
                    "escaped": observed.escaped,
                    "escaped_levels": sorted(observed.escaped_levels),
                }
            )
        )
        return 0
    print(f"observed escapement: {observed.as_escapement()}")
    if observed.escaped:
        levels = ", ".join(str(l) for l in sorted(observed.escaped_levels))
        print(f"  spine level(s) {levels} reached the result")
    else:
        print("  no cell of the argument is reachable from the result")
    return 0


def _cmd_spines(args: argparse.Namespace) -> int:
    from repro.bench.figures import spine_figure

    print(spine_figure(python_ast.literal_eval(args.list)))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.lang.pretty import pretty_program

    program = _load_program(args)
    if _wants_robust(args):
        from repro.opt.driver import harden_optimize

        outcome = harden_optimize(
            program, budget=_budget_from(args), validate=args.validate
        )
        for line in outcome.summary().splitlines():
            print(f"-- {line}")
        print(pretty_program(outcome.program), end="")
        return _finish_degraded(args, [str(d) for d in outcome.degradations])
    if args.reuse:
        from repro.opt.reuse import make_reuse_specialization

        function, _, index = args.reuse.partition(":")
        result = make_reuse_specialization(program, function, int(index or "1"))
        print(
            f"-- reuse: {result.new_name} recycles parameter "
            f"{result.param_index} ({result.rewritten_sites} DCONS site(s))"
        )
        program = result.program
    if args.stack:
        from repro.opt.stack_alloc import stack_allocate_body

        result = stack_allocate_body(program)
        print(f"-- stack: {result.annotated_sites} cons site(s) moved to the activation")
        program = result.program
    if args.block:
        from repro.opt.block_alloc import block_allocate_producer

        result = block_allocate_producer(program, args.block)
        print(
            f"-- block: {result.new_name} allocates {result.annotated_sites} "
            "site(s) into a block freed when the consumer returns"
        )
        program = result.program
    print(pretty_program(program), end="")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.machine.compiler import compile_program
    from repro.machine.instructions import disassemble

    program = _load_program(args)
    print(disassemble(compile_program(program)))
    return 0


def _trace_merge(args: argparse.Namespace) -> int:
    """``repro trace merge SHARD... --out FILE``: combine per-process
    JSONL shards into one schema-valid, causally ordered trace."""
    from repro.obs.context import merge_trace_files
    from repro.obs.events import TraceSchemaError, validate_trace_file

    shards = [Path(p) for p in args.extra]
    if not shards:
        print("error: trace merge needs at least one shard file", file=sys.stderr)
        return EXIT_ERROR
    if not args.out:
        print("error: trace merge requires --out FILE", file=sys.stderr)
        return EXIT_ERROR
    count = merge_trace_files(shards, args.out)
    try:
        validate_trace_file(args.out)
    except TraceSchemaError as error:  # pragma: no cover - merge bug guard
        print(f"error: merged trace is invalid: {error}", file=sys.stderr)
        return EXIT_ERROR
    print(
        f"merged {len(shards)} shard(s) into {args.out} ({count} event(s))",
        file=sys.stderr,
    )
    return EXIT_OK


def _trace_validate(args: argparse.Namespace) -> int:
    """``repro trace validate FILE...``: schema-check trace files; exit 1
    naming the offending event index and source line on the first bad
    one."""
    from repro.obs.events import TraceSchemaError, validate_trace_file

    if not args.extra:
        print("error: trace validate needs at least one file", file=sys.stderr)
        return EXIT_ERROR
    for path in args.extra:
        try:
            count = validate_trace_file(path)
        except TraceSchemaError as error:
            print(f"{path}: invalid trace: {error}", file=sys.stderr)
            return EXIT_ERROR
        except OSError as error:
            print(f"{path}: {error}", file=sys.stderr)
            return EXIT_ERROR
        print(f"{path}: {count} event(s) valid")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run the full analysis (and optionally the program) under the tracer
    and emit the JSONL event trace — to ``--out`` or stdout.  The
    ``merge`` and ``validate`` subactions operate on existing trace files
    instead (``repro trace merge SHARD... --out FILE``, ``repro trace
    validate FILE...``)."""
    from repro.escape.report import global_table
    from repro.obs import JsonlSink, RingBufferSink, Tracer, activate
    from repro.obs.profile import profile_report

    if not args.expr:
        if args.program == "merge":
            return _trace_merge(args)
        if args.program == "validate":
            return _trace_validate(args)
    if args.extra:
        print(
            f"error: unexpected arguments: {' '.join(args.extra)}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    program = _load_program(args)
    ring = RingBufferSink()
    sinks: list = [ring]
    jsonl = JsonlSink.open(args.out) if args.out else None
    if jsonl is not None:
        sinks.append(jsonl)
    from repro.obs.flight import recorder

    flight = recorder()
    if flight is not None:
        sinks.append(flight)
    try:
        with activate(Tracer(sinks=sinks)):
            global_table(program)
            if args.run:
                from repro.semantics.interp import Interpreter

                runtime = Interpreter(**_runtime_gc_kwargs(args, program))
                runtime.run(program)
    finally:
        if jsonl is not None:
            jsonl.close()
    if jsonl is None:
        for event in ring.events:
            print(canonical_dumps(event, default=str))
    else:
        print(f"wrote {ring.total} event(s) to {args.out}", file=sys.stderr)
    if args.profile:
        print(profile_report(ring.events, total=ring.total), end="", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct the causal chain behind one binding's result from a
    trace file alone (no re-analysis)."""
    from repro.obs.events import TraceSchemaError, validate_trace_file
    from repro.obs.explain import explain_binding, format_explanation, known_bindings
    from repro.obs.sinks import read_trace

    try:
        validate_trace_file(args.trace_file)
    except TraceSchemaError as error:
        print(f"{args.trace_file}: invalid trace: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    events = list(read_trace(args.trace_file))
    explanation = explain_binding(events, args.binding)
    if args.json:
        print(canonical_json(explanation.to_json()))
    else:
        print(format_explanation(explanation), end="")
    if not explanation.found:
        names = known_bindings(events)
        if names:
            preview = ", ".join(names[:8])
            print(f"hint: this trace can explain: {preview}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _store_from(args: argparse.Namespace):
    path = getattr(args, "store", None)
    if not path:
        return None
    from repro.store import AnalysisStore

    return AnalysisStore(path)


def _corpus_store_root(args: argparse.Namespace) -> "str | None":
    """The store of a corpus command (``batch``, ``diff snapshot``): none
    with ``--no-store``, else ``--store``, else ``<first path>/.repro-store``
    (the first path's directory when it names a file)."""
    if args.no_store:
        return None
    if args.store:
        return args.store
    first = Path(args.paths[0])
    base = first if first.is_dir() else first.parent
    return str(base / ".repro-store")


def _cmd_batch(args: argparse.Namespace) -> int:
    """Analyze a corpus of .nml files in parallel through a shared store."""
    from repro.batch import BatchInputError, collect_inputs, run_batch

    try:
        inputs = collect_inputs(args.paths)
    except BatchInputError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if not inputs:
        print("error: no .nml files found", file=sys.stderr)
        return EXIT_ERROR

    run_kwargs = dict(
        store_root=_corpus_store_root(args),
        jobs=args.jobs,
        d=args.d,
        max_iterations=args.max_iterations,
        check=args.check,
        deadline_ms=args.deadline_ms,
        timeout_s=args.timeout_ms / 1000.0 if args.timeout_ms is not None else None,
        max_attempts=args.retries,
        collector=args.gc,
        gc_threshold=args.gc_threshold,
    )
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if not trace_path and not profile:
        report = run_batch(args.paths, **run_kwargs)
    else:
        report = _batch_traced(args, run_kwargs, trace_path, profile)
    if args.json:
        print(canonical_json(report.to_json()))
    else:
        for file_report in report.reports:
            print(file_report.line())
        for line in report.summary().splitlines():
            print(f"-- {line}")
        if args.stats:
            for file_report in report.reports:
                if file_report.ok:
                    print(f"-- {file_report.path}: {canonical_dumps(file_report.stats)}")
    # The documented taxonomy, derived in one place (BatchReport.exit_code):
    # hard failure 1 > checker findings 4 > degraded/quarantined 3 > clean 0.
    return report.exit_code()


def _batch_traced(
    args: argparse.Namespace, run_kwargs: dict, trace_path, profile: bool
):
    """Run the batch under a driver tracer with a per-worker shard
    directory, then merge driver + worker shards into one causally
    ordered trace (written to ``--trace``; profiled with ``--profile``).
    Per-file profile summaries land on each report via its trace_id."""
    import tempfile

    from repro.batch import run_batch
    from repro.obs import JsonlSink, Tracer, activate
    from repro.obs.context import merge_traces
    from repro.obs.flight import recorder
    from repro.obs.profile import cache_stats, profile_report
    from repro.obs.sinks import read_trace

    with tempfile.TemporaryDirectory(prefix="repro-batch-trace-") as tmp:
        driver_shard = Path(tmp) / "driver-0000.jsonl"
        jsonl = JsonlSink.open(driver_shard)
        sinks: list = [jsonl]
        flight = recorder()
        if flight is not None:
            sinks.append(flight)
        try:
            with activate(Tracer(sinks=sinks)):
                report = run_batch(args.paths, trace=True, trace_dir=tmp, **run_kwargs)
        finally:
            jsonl.close()
        shard_paths = [driver_shard] + sorted(Path(tmp).glob("worker-*.jsonl"))
        shards = [list(read_trace(p)) for p in shard_paths]
        merged = merge_traces(shards, [p.stem for p in shard_paths])

    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as handle:
            for event in merged:
                handle.write(canonical_dumps(event, default=str) + "\n")
        print(f"wrote {len(merged)} event(s) to {trace_path}", file=sys.stderr)
    if profile:
        by_trace: dict[str, list] = {}
        for event in merged:
            trace_id = event.get("trace_id")
            if trace_id:
                by_trace.setdefault(trace_id, []).append(event)
        for file_report in report.reports:
            if file_report.trace_id:
                file_report.profile = cache_stats(
                    by_trace.get(file_report.trace_id, [])
                )
        print(profile_report(merged, total=len(merged)), end="", file=sys.stderr)
    return report


def _cmd_diff_snapshot(args: argparse.Namespace) -> int:
    """``repro diff snapshot CORPUS... --out DIR``: one canonical artifact
    per corpus file, through the supervised batch workers."""
    from repro.batch import BatchInputError
    from repro.diff.snapshot import snapshot_corpus

    try:
        report = snapshot_corpus(
            args.paths,
            args.out,
            jobs=args.jobs,
            store_root=_corpus_store_root(args),
            d=args.d,
            max_iterations=args.max_iterations,
            timeout_s=args.timeout_ms / 1000.0
            if args.timeout_ms is not None
            else None,
        )
    except BatchInputError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    failed = [r for r in report.reports if not r.ok]
    print(
        f"snapshotted {len(report.reports)} file(s) into {args.out}"
        + (f" ({len(failed)} failed; error artifacts written)" if failed else ""),
        file=sys.stderr,
    )
    # Failures are *recorded* (error artifacts the differ will surface),
    # so only infrastructure-level trouble is worth a nonzero exit here.
    return report.exit_code()


def _cmd_diff_compare(args: argparse.Namespace) -> int:
    """``repro diff compare BASE HEAD``: categorized artifact-tree diff.
    Exit 0 identical, 3 benign churn only, 4 gated regressions."""
    from repro.diff.compare import (
        CATEGORIES,
        DEFAULT_GATE,
        CompareError,
        compare_trees,
    )

    gate = DEFAULT_GATE
    if args.fail_on:
        unknown = sorted(set(args.fail_on) - set(CATEGORIES))
        if unknown:
            print(
                f"error: unknown categories: {', '.join(unknown)}; "
                f"known: {', '.join(CATEGORIES)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        gate = frozenset(args.fail_on)
    try:
        comparison = compare_trees(args.base, args.head, gate=gate)
    except CompareError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(canonical_json(comparison.to_json()))
    else:
        print(comparison.render(), end="")
    return comparison.exit_code()


def _cmd_diff_gen_corpus(args: argparse.Namespace) -> int:
    """``repro diff gen-corpus``: materialize (or verify) the generated
    corpus from the committed seed manifest."""
    from repro.diff.corpus import CorpusError, generate_corpus

    try:
        manifest = generate_corpus(args.out, count=args.count, force=args.force)
    except CorpusError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    print(f"{manifest['count']} generated program(s) in {args.out}")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-answer analysis daemon until SIGTERM/SIGINT."""
    from repro.serve import serve

    return serve(
        host=args.host,
        port=args.port,
        store_root=args.store,
        default_deadline_ms=args.deadline_ms,
        quiet=not args.verbose,
        collector=args.gc,
    )


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the static checker over one or more programs."""
    from repro.check import check_program, rules_table
    from repro.lang.parser import parse_program

    if args.rules:
        print(rules_table(), end="")
        return EXIT_OK
    if not args.paths:
        print("error: no program given (paths, or source with -e)", file=sys.stderr)
        return EXIT_ERROR

    passes = args.passes or None
    reports = []
    parse_failures = 0
    for raw in args.paths:
        label = "<expr>" if args.expr else str(raw)
        try:
            source = raw if args.expr else Path(raw).read_text()
            program = parse_program(source)
        except (NmlError, OSError) as error:
            parse_failures += 1
            detail = error.format() if isinstance(error, NmlError) else str(error)
            if not args.json:
                print(f"{label}: error: {detail}", file=sys.stderr)
            reports.append({"path": label, "ok": False, "error": detail})
            continue
        report = check_program(program, passes=passes, path=label)
        reports.append(report)

    findings = 0
    if args.json:
        files = [r if isinstance(r, dict) else r.to_json() for r in reports]
        findings = sum(
            r["counts"]["error"] + len(r["pass_errors"])
            for r in files
            if "counts" in r
        )
        doc = {
            "ok": parse_failures == 0 and findings == 0,
            "files": files,
            "totals": {
                severity: sum(
                    r["counts"][severity] for r in files if "counts" in r
                )
                for severity in ("error", "warning", "hint")
            },
        }
        print(canonical_json(doc))
    else:
        for report in reports:
            if isinstance(report, dict):
                continue  # parse failure, already printed
            print(report.render(), end="")
            findings += len(report.errors) + len(report.pass_errors)
    if parse_failures:
        return EXIT_ERROR
    return EXIT_OK if findings == 0 else EXIT_FINDINGS


class _Parser(argparse.ArgumentParser):
    """A parser that never expands an abbreviated long option, so ``--d``
    cannot silently mean ``--deadline-ms`` on a subcommand that has no
    ``--d``.  Subparsers are built with the class of their parent, so every
    subcommand, ``diff``'s included, parses the same way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Escape Analysis on Lists (Park & Goldberg, PLDI 1992)",
        epilog=_EXIT_CODE_HELP,
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="where the always-on flight recorder auto-dumps its black box "
        "on degradation, quarantine, worker crash, or checker error "
        "(default: $REPRO_FLIGHT_DIR; no dumps when neither is set)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="evaluate a program")
    _add_program_arg(run_parser)
    run_parser.add_argument("--metrics", action="store_true", help="print storage counters")
    _add_gc_arg(run_parser)
    run_parser.add_argument("--gc-threshold", type=int, default=10_000)
    run_parser.add_argument(
        "--machine", action="store_true", help="run on the compiled abstract machine"
    )
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the storage-safety sanitizer (halts on unsound reuse/reclaim)",
    )
    _add_obs_args(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = commands.add_parser("report", help="full analysis report")
    _add_program_arg(report_parser)
    report_parser.add_argument(
        "--stats",
        action="store_true",
        help="append query-session accounting (cache hits, iterations, steps)",
    )
    report_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    _add_obs_args(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    analyze_parser = commands.add_parser("analyze", help="escape tests")
    _add_program_arg(analyze_parser)
    analyze_parser.add_argument("--function", help="only this top-level function")
    analyze_parser.add_argument("--local", help="a call expression for the local test")
    analyze_parser.add_argument("--sharing", action="store_true", help="add Theorem 2 facts")
    analyze_parser.add_argument(
        "--stats",
        action="store_true",
        help="print query-session accounting (cache hits, iterations, steps)",
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit the results as JSON"
    )
    analyze_parser.add_argument(
        "--store",
        metavar="DIR",
        help="attach a persistent analysis store (SCC fixpoints shared across runs)",
    )
    _add_budget_args(analyze_parser)
    _add_obs_args(analyze_parser)
    analyze_parser.set_defaults(handler=_cmd_analyze)

    observe_parser = commands.add_parser("observe", help="ground-truth escapement")
    _add_program_arg(observe_parser)
    observe_parser.add_argument("function")
    observe_parser.add_argument("args", nargs="+", help="Python literals; @src for nml")
    observe_parser.add_argument("--index", "-i", type=int, default=1)
    observe_parser.add_argument(
        "--json", action="store_true", help="emit the observation as JSON"
    )
    observe_parser.set_defaults(handler=_cmd_observe)

    spines_parser = commands.add_parser("spines", help="Figure 1 for a list literal")
    spines_parser.add_argument("list", help="a Python list literal, e.g. '[[1,2],[3]]'")
    spines_parser.set_defaults(handler=_cmd_spines)

    disasm_parser = commands.add_parser("disasm", help="compiled machine code listing")
    _add_program_arg(disasm_parser)
    disasm_parser.set_defaults(handler=_cmd_disasm)

    optimize_parser = commands.add_parser("optimize", help="apply optimizations")
    _add_program_arg(optimize_parser)
    optimize_parser.add_argument("--reuse", metavar="F:I", help="reuse-specialize F's param I")
    optimize_parser.add_argument("--stack", action="store_true", help="stack-allocate the body call")
    optimize_parser.add_argument("--block", metavar="PRODUCER", help="block-allocate PRODUCER")
    optimize_parser.add_argument(
        "--validate",
        action="store_true",
        help="with --robust: re-run the optimized program under the sanitizer "
        "and discard the transforms if it misbehaves",
    )
    _add_budget_args(optimize_parser)
    _add_obs_args(optimize_parser)
    optimize_parser.set_defaults(handler=_cmd_optimize)

    trace_parser = commands.add_parser(
        "trace",
        help="emit a JSONL event trace of the analysis; also "
        "'trace merge SHARD... --out FILE' and 'trace validate FILE...'",
    )
    _add_program_arg(trace_parser)
    trace_parser.add_argument(
        "extra",
        nargs="*",
        help="for 'merge': shard files; for 'validate': trace files",
    )
    trace_parser.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    trace_parser.add_argument(
        "--run", action="store_true", help="also execute the program under the tracer"
    )
    _add_gc_arg(trace_parser, help_prefix="with --run: ")
    trace_parser.add_argument(
        "--profile", action="store_true", help="print a profile report to stderr"
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    batch_parser = commands.add_parser(
        "batch", help="analyze a corpus of .nml files through a shared store"
    )
    batch_parser.add_argument(
        "paths", nargs="+", help="directories (searched for *.nml) and/or files"
    )
    batch_parser.add_argument(
        "--jobs", "-j", type=int, default=1, help="worker processes (default: 1)"
    )
    batch_parser.add_argument(
        "--store",
        metavar="DIR",
        help="analysis store directory (default: <first path>/.repro-store)",
    )
    batch_parser.add_argument(
        "--no-store", action="store_true", help="run without a persistent store"
    )
    batch_parser.add_argument("--d", type=int, help="override the B_e chain bound d")
    batch_parser.add_argument(
        "--max-iterations", type=int, help="fixpoint iteration cap per solve"
    )
    batch_parser.add_argument(
        "--stats", action="store_true", help="print per-file session accounting"
    )
    batch_parser.add_argument(
        "--check",
        action="store_true",
        help="also run the static checker per file; diagnostic counts fold "
        "into the report (error findings exit 4)",
    )
    batch_parser.add_argument(
        "--json", action="store_true", help="emit the batch report as JSON"
    )
    batch_parser.add_argument(
        "--timeout-ms",
        type=float,
        help="per-file wall-clock timeout; a hung worker is killed and "
        "restarted",
    )
    batch_parser.add_argument(
        "--deadline-ms",
        type=float,
        help="per-file analysis deadline; a breach degrades that file to "
        "the sound W^tau answer (exit 3) instead of erroring",
    )
    batch_parser.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per file before quarantine (default: 3)",
    )
    _add_gc_arg(
        batch_parser, help_prefix="also execute each file under this collector: "
    )
    batch_parser.add_argument(
        "--gc-threshold",
        type=int,
        default=256,
        help="with --gc: allocation-budget trigger per execution (default: 256)",
    )
    _add_obs_args(batch_parser)
    batch_parser.set_defaults(handler=_cmd_batch)

    diff_parser = commands.add_parser(
        "diff",
        help="corpus-scale differential regression harness: snapshot a "
        "corpus to canonical artifacts, compare two snapshot trees, "
        "generate the seed-manifested corpus",
        epilog=_EXIT_CODE_HELP,
    )
    diff_commands = diff_parser.add_subparsers(dest="diff_command", required=True)

    snap_parser = diff_commands.add_parser(
        "snapshot", help="one canonical JSON artifact per corpus file"
    )
    snap_parser.add_argument(
        "paths", nargs="+", help="directories (searched for *.nml) and/or files"
    )
    snap_parser.add_argument(
        "--out", required=True, metavar="DIR", help="artifact tree destination"
    )
    snap_parser.add_argument(
        "--jobs", "-j", type=int, default=1, help="worker processes (default: 1)"
    )
    snap_parser.add_argument(
        "--store",
        metavar="DIR",
        help="analysis store directory (default: <first path>/.repro-store)",
    )
    snap_parser.add_argument(
        "--no-store", action="store_true", help="run without a persistent store"
    )
    snap_parser.add_argument("--d", type=int, help="override the B_e chain bound d")
    snap_parser.add_argument(
        "--max-iterations", type=int, help="fixpoint iteration cap per solve"
    )
    snap_parser.add_argument(
        "--timeout-ms",
        type=float,
        help="per-file wall-clock timeout; a hung worker is killed and "
        "restarted",
    )
    snap_parser.set_defaults(handler=_cmd_diff_snapshot)

    compare_parser = diff_commands.add_parser(
        "compare",
        help="categorized diff of two snapshot trees "
        "(exit 0 identical, 3 benign churn, 4 gated regressions)",
    )
    compare_parser.add_argument("base", help="baseline snapshot directory")
    compare_parser.add_argument("head", help="head snapshot directory")
    compare_parser.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON"
    )
    compare_parser.add_argument(
        "--fail-on",
        action="append",
        metavar="CATEGORY",
        help="gate on this category instead of the default regression set "
        "(repeatable; e.g. --fail-on decision_lost --fail-on code_changed)",
    )
    compare_parser.set_defaults(handler=_cmd_diff_compare)

    gen_parser = diff_commands.add_parser(
        "gen-corpus",
        help="materialize the generated corpus from its seed manifest "
        "(or draw a fresh one with --force)",
    )
    gen_parser.add_argument(
        "--out",
        default="examples/generated",
        metavar="DIR",
        help="corpus directory (default: examples/generated)",
    )
    gen_parser.add_argument(
        "--count", type=int, default=200, help="distinct programs (default: 200)"
    )
    gen_parser.add_argument(
        "--force",
        action="store_true",
        help="draw a fresh corpus and rewrite the manifest instead of "
        "re-materializing the committed one",
    )
    gen_parser.set_defaults(handler=_cmd_diff_gen_corpus)

    explain_parser = commands.add_parser(
        "explain",
        help="reconstruct the causal chain behind one binding's result "
        "from a trace file",
    )
    # dest must not be "trace": _obs_scope would read the positional as
    # the --trace output flag and truncate the input file.
    explain_parser.add_argument(
        "trace_file",
        metavar="TRACE",
        help="a JSONL trace: an export, a merged batch trace, or "
        "a flight-recorder dump",
    )
    explain_parser.add_argument(
        "--binding", "-b", required=True, metavar="NAME",
        help="the binding (function) to explain",
    )
    explain_parser.add_argument(
        "--json", action="store_true", help="emit the schema-stable JSON form"
    )
    explain_parser.set_defaults(handler=_cmd_explain)

    serve_parser = commands.add_parser(
        "serve",
        help="the always-answer analysis daemon (HTTP/JSON; /metrics scrape)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8100, help="0 lets the OS pick (printed on start)"
    )
    serve_parser.add_argument(
        "--store",
        metavar="DIR",
        help="attach a persistent analysis store shared across requests",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        help="default per-request analysis deadline (requests may override); "
        "a breach degrades to the sound W^tau answer, HTTP 200 with "
        '"degraded": true',
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    _add_gc_arg(
        serve_parser, help_prefix="default collector for validated optimize requests: "
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    check_parser = commands.add_parser(
        "check",
        help="static checker: lint, optimization audit, machine verifier",
        epilog=_EXIT_CODE_HELP,
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        help="nml files to check (or source text with -e)",
    )
    check_parser.add_argument(
        "-e", "--expr", action="store_true", help="treat each PATH as source text"
    )
    check_parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=["lint", "audit", "machine"],
        help="run only this pass (repeatable; default: all three)",
    )
    check_parser.add_argument(
        "--rules", action="store_true", help="print the rule table and exit"
    )
    check_parser.add_argument(
        "--json", action="store_true", help="emit the reports as JSON"
    )
    _add_obs_args(check_parser)
    check_parser.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _flight_scope(args) as flight, _obs_scope(args):
            code = args.handler(args)
            if (
                code in (EXIT_DEGRADED, EXIT_FINDINGS)
                and flight.dump_dir is not None
                and not flight.dumps
            ):
                # Belt and braces: some degraded/finding exits surface
                # only in the code (no trigger event reached this
                # process) — dump the black box anyway.
                flight.dump(
                    flight.dump_dir / f"flight-exit-{code}.jsonl",
                    reason=f"exit-{code}",
                )
            return code
    except NmlError as error:
        print(f"error: {error.format()}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The traced run: every pipeline layer timed from outside, in-process.

The benchmark records spans from its own files: :class:`Instrumentation`
wraps each layer's public functions (listed in :data:`LAYER_FUNCTIONS`)
with a span recorder for the length of the traced run, and restores them
afterwards.  Nothing inside ``src/`` changes.  A span carries a name, its
layer (a module name), start and end (``perf_counter_ns``), the span that
caused it, and the trace id of its operation; every operation of a probe
gets its own trace id and a root span named ``op`` whose attributes hold
the counts measured at that boundary.

The spans are kept in memory and written to one JSON file when the run
ends.  Every per-layer metric — and the self-time table — is then
recomputed from that file alone (:func:`layer_metrics`), so a number can
always be traced back to the spans it came from.

Probes, in order, over the workload's inputs:

* ``cli``: ``python -c pass`` and ``python -c "import repro.cli"``, 10 each;
* ``snapshot-cold``: ``parse_program`` + ``snapshot_program`` per input on
  one fresh store — every analysis layer runs once per input;
* ``snapshot-warm``: the same through fresh sessions on the warm store;
* ``check``: ``check_program(passes=[p])`` for each pass alone;
* ``runtime``: each program without GC and under every collector;
* ``serve``: ``AnalysisService.handle`` on the workload's request list;
* ``overhead``: ``snapshot_program`` over a sample, untraced vs. traced;
* ``serve-http``: the same request list through a ``repro serve`` daemon;
* ``batch``: ``snapshot_corpus`` with ``jobs=1`` (in-process) and ``jobs=2``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import shutil
import statistics
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path

import golden
import workloads
from workloads import COLLECTORS

#: (layer, defining module, function or Class.method) — the layer
#: boundaries the traced run records.  ``CHECK_PASSES.<pass>`` names an
#: entry of :data:`repro.check.CHECK_PASSES`.
LAYER_FUNCTIONS = (
    ("repro.lang", "repro.lang.parser", "parse_program"),
    ("repro.lang", "repro.lang.fingerprint", "program_fingerprint"),
    ("repro.types", "repro.types.infer", "infer_program"),
    ("repro.ir", "repro.ir.lower", "lower_expr"),
    ("repro.ir", "repro.ir.lower", "lower_binding"),
    ("repro.ir", "repro.ir.lower", "lower_program"),
    ("repro.query", "repro.query", "AnalysisSession.__init__"),
    ("repro.query", "repro.query", "AnalysisSession.solve"),
    ("repro.query", "repro.query", "AnalysisSession.solve_call"),
    ("repro.query", "repro.query", "AnalysisSession.sharing_classes"),
    ("repro.escape", "repro.escape.analyzer", "EscapeAnalysis.solve"),
    ("repro.escape", "repro.escape.analyzer", "EscapeAnalysis.global_test"),
    ("repro.escape", "repro.escape.analyzer", "EscapeAnalysis.global_all"),
    ("repro.escape", "repro.escape.analyzer", "EscapeAnalysis.local_test"),
    ("repro.escape", "repro.escape.analyzer", "EscapeAnalysis.sharing_classes"),
    ("repro.escape", "repro.escape.abstract", "fingerprint"),
    ("repro.store", "repro.store", "AnalysisStore.read"),
    ("repro.store", "repro.store", "AnalysisStore.write"),
    ("repro.analysis.heap_liveness", "repro.escape.analyzer", "EscapeAnalysis.heap_liveness"),
    ("repro.analysis.heap_liveness", "repro.analysis.heap_liveness", "summarize_scc"),
    ("repro.analysis.heap_liveness", "repro.analysis.heap_liveness", "facts_from_summaries"),
    ("repro.analysis.heap_liveness", "repro.analysis.heap_liveness", "analyze_program"),
    ("repro.opt", "repro.opt.driver", "plan_optimizations"),
    ("repro.opt", "repro.opt.driver", "apply_plan"),
    ("repro.check", "repro.check", "check_program"),
    ("repro.check", "repro.check", "CHECK_PASSES.lint"),
    ("repro.check", "repro.check", "CHECK_PASSES.audit"),
    ("repro.check", "repro.check", "CHECK_PASSES.machine"),
    ("repro.machine", "repro.machine.compiler", "compile_program"),
    ("repro.machine", "repro.machine.instructions", "disassemble"),
    ("repro.machine", "repro.machine.instructions", "instruction_counts"),
    ("repro.semantics", "repro.semantics.interp", "Interpreter.run"),
    ("repro.semantics", "repro.semantics.gc", "Collector.collect"),
    ("repro.diff", "repro.diff.snapshot", "snapshot_program"),
    ("repro.serve", "repro.serve", "AnalysisService.handle"),
)

#: The serve probes replay the first pairs of serve-keepalive's passes for
#: the run's seed; serve-keepalive's other probes run over the files of its
#: first cold passes (about what one window reaches).
SERVE_PROBE_PAIRS = 2
SERVE_INPUT_PASSES = 12
#: Corpus programs allocate fewer cells than the GC threshold, so every
#: other workload's runtime probe adds these runtime-gc pool programs and
#: the collectors are measured on every workload.
RUNTIME_REFERENCES = ("ps-125", "rev-65")
#: ``obs.trace_overhead_pct``: snapshot_program over the first serve-probe
#: sources, untraced and traced, alternating.
OVERHEAD_SAMPLE = 16
OVERHEAD_REPEATS = 9
CLI_REPEATS = 10

#: Per-layer metric -> unit, in report order.
UNITS = {
    "cli.python_start_ms": "ms", "cli.import_ms": "ms",
    "lang.parse_ms": "ms", "types.infer_ms": "ms", "ir.lower_ms": "ms",
    "ir.instructions": "count",
    "escape.solve_ms": "ms", "escape.solve_warm_ms": "ms", "escape.eval_steps": "count",
    "escape.iterations": "count", "escape.scc_misses": "count",
    "store.hits": "count", "store.misses": "count", "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "liveness.analyze_ms": "ms", "liveness.degraded_files": "count",
    "opt.plan_ms": "ms", "opt.apply_ms": "ms", "opt.decisions": "count",
    "check.lint_ms": "ms", "check.audit_ms": "ms", "check.machine_ms": "ms",
    "check.findings": "count",
    "machine.compile_ms": "ms", "machine.instructions": "count",
    "semantics.run_ms": "ms", "semantics.gc_ms": "ms", "semantics.eval_steps": "count",
    "semantics.heap_allocs": "count", "semantics.reused": "count",
    **{f"semantics.{what}.{c}": ("ratio" if what == "gc_yield" else "count")
       for what in ("gc_runs", "gc_marked", "gc_swept", "gc_yield") for c in COLLECTORS},
    "diff.snapshot_program_ms": "ms", "batch.serial_ms": "ms", "batch.supervised_ms": "ms",
    "batch.attempts": "count",
    **{f"serve.handle_p50_ms.{e}": "ms" for e in ("analyze", "check", "optimize")},
    "serve.transport_p50_ms": "ms", "serve.coalesced": "count",
    "obs.trace_overhead_pct": "%", "trace.coverage": "ratio",
}

ESCAPE_LAYERS = ("repro.escape", "repro.query")
OP_KEY = 0


class Recorder:
    """In-memory spans of one traced run.  Layer wrappers record only
    inside an operation (:meth:`op`); :meth:`add` takes spans measured on
    other threads.

    Spans are rows of integer arrays, not Python objects: a list of
    hundreds of thousands of objects would be re-traversed by every full
    cyclic-GC pass of the program under test and inflate its run time as
    the trace grows."""

    def __init__(self) -> None:
        #: span id, (name, layer) key, parent id (-1: none), trace, start, end
        self.rows = tuple(array("q") for _ in range(6))
        self.keys: dict[tuple[str, str], int] = {("op", "bench"): OP_KEY}
        self.traces: list[str] = []
        #: span id -> attributes, for ``op`` spans
        self.attrs: dict[int, dict] = {}
        self.ids = itertools.count()
        self.stack: list[int] = []
        self.trace = -1
        self.enabled = False
        self._lock = threading.Lock()
        #: analysis sessions created inside the current operation
        self.sessions: list = []

    def key(self, name: str, layer: str) -> int:
        return self.keys.setdefault((name, layer), len(self.keys))

    def row(self, *values: int) -> None:
        for column, value in zip(self.rows, values):
            column.append(value)

    @contextmanager
    def span(self, key: int, attrs: "dict | None" = None):
        span_id = next(self.ids)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span_id)
        if attrs is not None:
            self.attrs[span_id] = attrs
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.row(span_id, key, parent, self.trace, start, end)

    def new_trace(self, probe: str) -> int:
        self.traces.append(f"{probe}-{len(self.traces):05d}")
        return len(self.traces) - 1

    @contextmanager
    def op(self, probe: str, **attrs):
        """One operation: a fresh trace id, a root span, layer recording
        on.  Yields the root span's attributes, to add counts to."""
        self.trace = self.new_trace(probe)
        self.sessions = []
        self.enabled = True
        try:
            with self.span(OP_KEY, {"probe": probe, **attrs}) as record:
                yield record
        finally:
            self.enabled = False
            self.trace = -1

    def add(self, probe: str, start: int, end: int, attrs: dict) -> None:
        """A root ``op`` span measured elsewhere (e.g. a client thread)."""
        with self._lock:
            span_id = next(self.ids)
            self.attrs[span_id] = {"probe": probe, **attrs}
            self.row(span_id, OP_KEY, -1, self.new_trace(probe), start, end)

    def document(self) -> list[dict]:
        names = {key: pair for pair, key in self.keys.items()}
        spans = []
        for span_id, key, parent, trace, start, end in zip(*self.rows):
            name, layer = names[key]
            span = {"id": span_id, "name": name, "layer": layer,
                    "parent": None if parent < 0 else parent,
                    "trace_id": self.traces[trace], "start": start, "end": end}
            if span_id in self.attrs:
                span["attrs"] = self.attrs[span_id]
            spans.append(span)
        return spans


def _traced(recorder: Recorder, layer: str, name: str, fn, on_call=None):
    stack, ids, clock, row = recorder.stack, recorder.ids, time.perf_counter_ns, recorder.row
    key = recorder.key(name, layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(args)
        span_id = next(ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            row(span_id, key, parent, recorder.trace, start, end)

    return traced


class Instrumentation:
    """Installs and removes the layer wrappers.  A module-level function
    is replaced everywhere a loaded ``repro`` module bound it by name."""

    def __init__(self, recorder: Recorder):
        # Load every module that imports layer functions by name first, so
        # those bindings are patched too.
        import repro.batch  # noqa: F401
        import repro.check
        import repro.cli  # noqa: F401
        import repro.diff.snapshot  # noqa: F401
        import repro.serve  # noqa: F401

        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module_name, qualname in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            name = f"{module_name}:{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name == "CHECK_PASSES":
                table = repro.check.CHECK_PASSES
                original = table[attr]
                self._patches.append((table, attr, original, _traced(recorder, layer, name, original)))
            elif owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                on_call = None
                if qualname == "AnalysisSession.__init__":
                    on_call = lambda args: recorder.sessions.append(args[0])  # noqa: E731
                traced = _traced(recorder, layer, name, original, on_call)
                self._patches.append((owner, attr, original, traced))
            else:
                original = getattr(module, attr)
                traced = _traced(recorder, layer, name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro"):
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                self._patches.append((loaded, key, original, traced))

    def _set(self, which: int) -> None:
        for patch in self._patches:
            owner, key, value = patch[0], patch[1], patch[which]
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        self._set(3)

    def remove(self) -> None:
        self._set(2)


@dataclass
class Input:
    rel: str
    source: str
    #: what ``repro run`` prints for it
    run: str
    #: golden :func:`golden.artifact_digest` (corpus files only)
    artifact_digest: "str | None" = None


def trace_plan(ctx: workloads.Context, workload: str, seed: int):
    """The workload's inputs and the serve request list, drawn from the
    same seeded schedules the untraced runs use."""
    def corpus_inputs(rels):
        files = ctx.expected["files"]
        return [Input(rel, ctx.source(rel), files[rel]["run"], files[rel]["artifact_digest"])
                for rel in dict.fromkeys(rels)]

    serve_passes = workloads.serve_schedule(ctx, seed)
    serve_passes = [next(serve_passes) for _ in range(SERVE_INPUT_PASSES)]
    if workload == "corpus-snapshot":
        inputs = corpus_inputs(ctx.corpus)
    elif workload == "cli-cold":
        schedule = workloads.cli_schedule(ctx.corpus, seed)
        passes = workloads.CLI_MIN_OPS // len(workloads.CLI_PASS) // 2
        inputs = corpus_inputs(rel for _ in range(passes) for _, rel in next(schedule))
    elif workload == "serve-keepalive":
        inputs = corpus_inputs(rel for work in serve_passes for _, rel in work)
    else:
        inputs = [Input(p.label, p.source, str(p.expected))
                  for p in workloads.build_pool(seed)]
    requests = [r for work in serve_passes[:SERVE_PROBE_PAIRS] for r in work + work]
    return inputs, requests


def ir_instructions(program) -> int:
    from repro.ir.lower import lower_program

    def count(block) -> int:
        return sum(1 + sum(count(b) for b in i.blocks) for i in block.instrs)

    return sum(count(block) for block in lower_program(program).values())


def traced_run(ctx: workloads.Context, workload: str, seed: int, trace_out: Path) -> dict:
    """Run every probe over the workload's inputs, write the span file,
    and return the result document recomputed from that file."""
    # Layer functions are called through their modules, so the installed
    # wrappers see the calls.
    import repro.check as check
    import repro.diff.snapshot as snapshot
    import repro.lang.parser as parser
    from repro.canonical import canonical_bytes
    from repro.serve import AnalysisService
    from repro.store import AnalysisStore

    inputs, requests = trace_plan(ctx, workload, seed)
    sources = {rel: ctx.source(rel) for _, rel in requests}
    references = () if workload == "runtime-gc" else RUNTIME_REFERENCES
    runtime_inputs = inputs + [Input(p.label, p.source, str(p.expected))
                               for p in workloads.build_pool(seed, references)]
    recorder = Recorder()
    failures: list[str] = []
    probe_cli(ctx, recorder, failures)
    programs = {i.rel: parser.parse_program(i.source) for i in runtime_inputs}
    sizes = {i.rel: ir_instructions(programs[i.rel]) for i in inputs}
    sample = [parser.parse_program(text) for text in list(sources.values())[:OVERHEAD_SAMPLE]]
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        store_root = ctx.fresh_dir("trace-store-")
        artifacts: dict[str, bytes] = {}
        for probe in ("snapshot-cold", "snapshot-warm"):
            store = AnalysisStore(store_root)
            for item in inputs:
                before = store.counters()
                with recorder.op(probe, input=item.rel) as op:
                    document = snapshot.snapshot_program(
                        parser.parse_program(item.source), item.rel, store=store
                    )
                data = canonical_bytes(document)
                after = store.counters()
                op.update(
                    store_hits=after["store_hits"] - before["store_hits"],
                    store_misses=after["store_misses"] - before["store_misses"],
                    **snapshot_counts(recorder.sessions, document, sizes[item.rel]),
                )
                if probe == "snapshot-cold":
                    artifacts[item.rel] = data
                    if item.artifact_digest and golden.artifact_digest(data) != item.artifact_digest:
                        failures.append(f"{item.rel}: artifact differs from expected.json")
                elif golden.artifact_digest(data) != golden.artifact_digest(artifacts[item.rel]):
                    failures.append(f"{item.rel}: warm artifact differs from the cold one")
        store_bytes = sum(p.stat().st_size for p in store_root.rglob("*") if p.is_file())

        for item in inputs:
            with recorder.op("check", input=item.rel) as op:
                findings = 0
                for name in ("lint", "audit", "machine"):
                    with recorder.span(recorder.key(f"check.{name}", "repro.check")):
                        report = check.check_program(programs[item.rel], passes=[name], path=item.rel)
                    findings += len(report.diagnostics)
                    if report.pass_errors:
                        failures.append(f"{item.rel}: check {name} crashed")
            op["findings"] = findings

        for item in runtime_inputs:
            for collector in ("none",) + COLLECTORS:
                with recorder.op("runtime", input=item.rel, collector=collector) as op:
                    value, interp = runtime_op(programs[item.rel], collector)
                op.update(runtime_counts(interp))
                if value != item.run:
                    failures.append(f"{item.rel} under {collector}: ran to {value!r}")

        service = AnalysisService(store_root=str(ctx.fresh_dir("trace-serve-")))
        for endpoint, rel in requests:
            with recorder.op("serve", input=rel, endpoint=endpoint):
                status, doc = service.handle(endpoint, {"source": sources[rel]})
            if status != 200 or doc.get("ok") is not True or doc.get("degraded"):
                failures.append(f"handle /{endpoint} {rel}: status {status}")

        for _ in range(OVERHEAD_REPEATS):
            for mode in ("untraced", "traced"):
                (instrumentation.install if mode == "traced" else instrumentation.remove)()
                # Start each repeat from a collected heap, so a full cyclic
                # GC pass lands in neither mode by luck.
                gc.collect()
                with recorder.op("overhead", mode=mode):
                    for program in sample:
                        snapshot.snapshot_program(program, "sample")
    finally:
        instrumentation.remove()

    probe_http(ctx, recorder, requests, sources, failures)
    probe_batch(ctx, recorder, inputs, failures)

    doc = {
        "workload": workload, "seed": seed, "clock": "perf_counter_ns",
        "store_bytes": store_bytes, "spans": recorder.document(),
    }
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(doc), encoding="utf-8")
    reread = json.loads(trace_out.read_text(encoding="utf-8"))
    attempted = len({s["trace_id"] for s in reread["spans"] if s["name"] == "op"})
    return {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": layer_metrics(reread), "errors": failures[:20],
        "table": self_time_table(reread),
    }


def snapshot_counts(sessions: list, document: dict, ir_size: int) -> dict:
    return {
        "eval_steps": sum(s.stats.eval_steps for s in sessions),
        "iterations": sum(s.stats.iterations for s in sessions),
        "scc_misses": sum(s.stats.scc_misses for s in sessions),
        "ir_instructions": ir_size,
        "decisions": len(document["decisions"]) + len(document["decertified"]),
        "machine_instructions": document["machine"]["instructions"],
        "liveness_degraded": int(bool(document["liveness"]["degraded"])),
    }


def runtime_op(program, collector: str):
    from repro.semantics.interp import Interpreter

    try:
        if collector == "none":
            interp = Interpreter()
            return str(interp.to_python(interp.run(program))), interp
        value, interp = workloads.gc_run(program, collector)
        return str(value), interp
    except Exception as error:  # a crashing run is recorded as a failure
        return f"{type(error).__name__}: {error}", None


def runtime_counts(interp) -> dict:
    if interp is None:
        return {}
    m = interp.metrics
    return {"eval_steps": m.eval_steps, "heap_allocs": m.heap_allocs, "reused": m.reused,
            "gc_runs": m.gc_runs, "gc_marked": m.gc_marked, "gc_swept": m.gc_swept}


def probe_cli(ctx: workloads.Context, recorder: Recorder, failures: list) -> None:
    """The floor (interpreter start) and the CLI's import cost, measured
    as process wall time, alternating so drift hits both alike."""
    for _ in range(CLI_REPEATS):
        for command, code in (("pass", "pass"), ("import", "import repro.cli")):
            with recorder.op("cli", command=command):
                done = workloads.run_child([sys.executable, "-c", code], ctx, capture=False)
            if done.returncode != 0:
                failures.append(f"python -c {code!r} exited {done.returncode}")


def probe_http(ctx, recorder: Recorder, requests, sources: dict, failures: list) -> None:
    """The serve probe's requests through a real daemon over two
    keep-alive connections; end-to-end time per request."""
    daemon = workloads.Daemon(ctx, ctx.fresh_dir("trace-daemon-"))
    conns = [HTTPConnection(daemon.host, daemon.port, timeout=120)
             for _ in range(workloads.SERVE_CLIENTS)]
    lock = threading.Lock()

    def record(endpoint, rel, elapsed, status, doc):
        end = time.perf_counter_ns()
        recorder.add("serve-http", end - int(elapsed * 1e9), end, {
            "input": rel, "endpoint": endpoint, "coalesced": bool(doc.get("coalesced")),
        })
        if status != 200 or doc.get("ok") is not True or doc.get("degraded"):
            with lock:
                failures.append(f"http /{endpoint} {rel}: status {status}")

    bodies = {rel: workloads.request_body(text) for rel, text in sources.items()}
    try:
        workloads.send_all(conns, requests, bodies, record)
    finally:
        for conn in conns:
            conn.close()
        daemon.stop()


def probe_batch(ctx, recorder: Recorder, inputs, failures: list) -> None:
    """``snapshot_corpus`` over the inputs, laid out corpus-relative so the
    artifacts are comparable with the golden ones."""
    from repro.diff.snapshot import snapshot_corpus

    corpus = ctx.fresh_dir("trace-corpus-")
    for item in inputs:
        target = corpus / (item.rel if item.rel.endswith(".nml") else f"{item.rel}.nml")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(item.source, encoding="utf-8")
    for jobs in (1, 2):
        out = ctx.fresh_dir("trace-batch-")
        with recorder.op("batch", jobs=jobs) as op:
            report = snapshot_corpus([corpus], out, jobs=jobs,
                                     store_root=ctx.fresh_dir("trace-batch-store-"))
        op["attempts"] = sum(r.attempts for r in report.reports)
        if report.exit_code() != 0:
            failures.append(f"snapshot_corpus jobs={jobs} exited {report.exit_code()}")
        for item in inputs:
            if item.artifact_digest:
                data = (out / f"{item.rel}.json").read_bytes()
                if golden.artifact_digest(data) != item.artifact_digest:
                    failures.append(f"batch jobs={jobs} {item.rel}: artifact differs")
        shutil.rmtree(out, ignore_errors=True)


# -- metrics from the span file ----------------------------------------------


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0) + span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0) for s in spans}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(doc: dict) -> dict[str, dict]:
    """Every per-layer metric, recomputed from a trace document alone."""
    spans = doc["spans"]
    ops = [s for s in spans if s["name"] == "op"]
    attrs_of = {s["trace_id"]: s["attrs"] for s in ops}
    selfs = self_times(spans)

    def in_probe(probe):
        return [s for s in spans if attrs_of[s["trace_id"]]["probe"] == probe]

    def self_ms(probe, layers=(), names=()):
        return sum(selfs[s["id"]] for s in in_probe(probe)
                   if s["layer"] in layers or s["name"].rpartition(":")[2] in names) / 1e6

    def durations_ms(probe, name="op", **match):
        """Durations of the probe's spans called ``name`` (a qualified
        function name, or ``op`` for the operations) whose operation's
        attributes match."""
        return [(s["end"] - s["start"]) / 1e6 for s in in_probe(probe)
                if s["name"].rpartition(":")[2] == name
                and all(attrs_of[s["trace_id"]].get(k) == v for k, v in match.items())]

    def total(probes, key, **match):
        return sum(o["attrs"].get(key, 0) for o in ops if o["attrs"]["probe"] in probes
                   and all(o["attrs"].get(k) == v for k, v in match.items()))

    start = _median(durations_ms("cli", command="pass"))
    values = {
        "cli.python_start_ms": start,
        "cli.import_ms": _median(durations_ms("cli", command="import")) - start,
        "lang.parse_ms": self_ms("snapshot-cold", names=("parse_program",)),
        "types.infer_ms": self_ms("snapshot-cold", layers=("repro.types",)),
        "ir.lower_ms": self_ms("snapshot-cold", layers=("repro.ir",)),
        "ir.instructions": total(("snapshot-cold",), "ir_instructions"),
        "escape.solve_ms": self_ms("snapshot-cold", layers=ESCAPE_LAYERS),
        "escape.solve_warm_ms": self_ms("snapshot-warm", layers=ESCAPE_LAYERS),
        "escape.eval_steps": total(("snapshot-cold",), "eval_steps"),
        "escape.iterations": total(("snapshot-cold",), "iterations"),
        "escape.scc_misses": total(("snapshot-cold",), "scc_misses"),
    }
    hits = total(("snapshot-cold", "snapshot-warm"), "store_hits")
    misses = total(("snapshot-cold", "snapshot-warm"), "store_misses")
    values.update({
        "store.hits": hits, "store.misses": misses,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes": doc["store_bytes"],
        "liveness.analyze_ms": self_ms("snapshot-cold", layers=("repro.analysis.heap_liveness",)),
        "liveness.degraded_files": total(("snapshot-cold",), "liveness_degraded"),
        "opt.plan_ms": self_ms("snapshot-cold", names=("plan_optimizations",)),
        "opt.apply_ms": self_ms("snapshot-cold", names=("apply_plan",)),
        "opt.decisions": total(("snapshot-cold",), "decisions"),
        **{f"check.{p}_ms": sum(durations_ms("check", f"check.{p}")) for p in ("lint", "audit", "machine")},
        "check.findings": total(("check",), "findings"),
        "machine.compile_ms": self_ms("snapshot-cold", layers=("repro.machine",)),
        "machine.instructions": total(("snapshot-cold",), "machine_instructions"),
        "semantics.run_ms": self_ms("runtime", names=("Interpreter.run",)),
        "semantics.gc_ms": self_ms("runtime", names=("Collector.collect",)),
    })
    for key in ("eval_steps", "heap_allocs", "reused"):
        values[f"semantics.{key}"] = total(("runtime",), key, collector="none")
    for c in COLLECTORS:
        marked = total(("runtime",), "gc_marked", collector=c)
        swept = total(("runtime",), "gc_swept", collector=c)
        values[f"semantics.gc_runs.{c}"] = total(("runtime",), "gc_runs", collector=c)
        values[f"semantics.gc_marked.{c}"] = marked
        values[f"semantics.gc_swept.{c}"] = swept
        values[f"semantics.gc_yield.{c}"] = swept / marked if marked else 0.0

    snapshot_spans = [s for s in in_probe("snapshot-cold") if s["name"].endswith(":snapshot_program")]
    snapshot_ns = sum(s["end"] - s["start"] for s in snapshot_spans)
    handles = {e: durations_ms("serve", "AnalysisService.handle", endpoint=e)
               for e in ("analyze", "check", "optimize")}
    batch = {jobs: sum(durations_ms("batch", jobs=jobs)) for jobs in (1, 2)}
    untraced = _median(durations_ms("overhead", mode="untraced"))
    values.update({
        "diff.snapshot_program_ms": snapshot_ns / 1e6,
        "batch.serial_ms": batch[1],
        "batch.supervised_ms": batch[2],
        "batch.attempts": total(("batch",), "attempts"),
        **{f"serve.handle_p50_ms.{e}": _median(v) for e, v in handles.items()},
        "serve.transport_p50_ms": _median(durations_ms("serve-http"))
        - _median(d for v in handles.values() for d in v),
        "serve.coalesced": sum(1 for o in ops if o["attrs"]["probe"] == "serve-http"
                               and o["attrs"].get("coalesced")),
        "obs.trace_overhead_pct": 100.0 * (_median(durations_ms("overhead", mode="traced"))
                                           - untraced) / untraced if untraced else 0.0,
        "trace.coverage": 1 - sum(selfs[s["id"]] for s in snapshot_spans) / snapshot_ns
        if snapshot_ns else 0.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def self_time_table(doc: dict) -> str:
    """Per-layer self time (ms) by probe, recomputed from the span file."""
    spans = doc["spans"]
    probe_of = {s["trace_id"]: s["attrs"]["probe"] for s in spans if s["name"] == "op"}
    selfs = self_times(spans)
    probes = ("snapshot-cold", "snapshot-warm", "check", "runtime", "serve")
    cells: dict[str, dict[str, float]] = {}
    for span in spans:
        probe = probe_of[span["trace_id"]]
        if probe in probes:
            row = cells.setdefault(span["layer"], dict.fromkeys(probes, 0.0))
            row[probe] += selfs[span["id"]] / 1e6
    lines = [f"{'layer self time (ms)':<30}" + "".join(f"{p:>15}" for p in probes)]
    for layer in sorted(cells, key=lambda name: -sum(cells[name].values())):
        lines.append(f"{layer:<30}" + "".join(f"{cells[layer][p]:>15.1f}" for p in probes))
    return "\n".join(lines)

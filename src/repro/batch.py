"""Supervised parallel batch analysis: a corpus of ``.nml`` programs
through one store, on supervised worker processes.

``repro batch <dir>`` fans the corpus across supervised worker processes.
Each file builds its own :class:`~repro.query.AnalysisSession` (sessions
are process-local by design), but all workers attach the same
:class:`~repro.store.AnalysisStore`, so an SCC fixpoint solved by any
worker — the prelude's ``append``, ``map``, ``rev`` knots recur across
corpus programs — is decoded, not re-solved, by every other worker and by
every later run.  Provenance digests make that sound: two programs share a
stored entry exactly when their typed bindings and transitive analysis
inputs agree (:func:`repro.query.scc_digest`), and the store's atomic,
content-addressed writes make concurrent workers racing on a common digest
harmless (both write the same bytes).

The driver forks at most ``jobs`` workers (one when ``jobs <= 1``), each
once per run, and hands each one file at a time over a Pipe; a fresh fork
per file made a corpus snapshot about half again as slow.  There is no
in-process path: one worker answering every file in a row is the serial
run.  Nothing a file does may reach the next file's answer: the tracer,
fault plan, trace context and flight recorder are set up per attempt, and
the type-variable counter goes back to where the fork left it, because
snapshot scheme texts depend on it.

The driver supervises rather than trusts its workers:

* every worker attempt gets a **per-file wall-clock timeout**
  (``timeout_s``, counted from dispatch); a hung worker is terminated
  and replaced;
* a **crashed** worker (hard exit, broken pipe) is replaced, and its file
  goes straight back on the queue (a ``retry`` event) until it has used
  ``max_attempts`` attempts;
* a file that fails all its attempts is **quarantined** into the report
  (a ``quarantine`` event) — the batch keeps its throughput and the
  poison input keeps its attempt count and last error, instead of either
  sinking the run;
* **budget exhaustion degrades**: with ``deadline_ms`` set, workers run
  every query under that budget and a breached analysis deadline yields
  the sound ``W^τ`` worst case (reported ``degraded``), never an error.

An ordinary failure *inside* a file — parse error, type error — is still
contained by the worker itself and answered in one attempt; supervision
exists for the failures the worker cannot contain (its own death).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from pathlib import Path

# Everything a worker body runs is imported here, before the supervisor's
# first fork, so each worker inherits it instead of importing it again.
# The checker's passes import their modules when they first run, so those
# modules are named here.
import repro.check.audit  # noqa: F401
import repro.check.lint  # noqa: F401
import repro.machine.compiler  # noqa: F401
import repro.machine.verify  # noqa: F401
import repro.opt.driver  # noqa: F401
from repro.analysis.heap_liveness import analyze_program
from repro.check import check_program
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.report import stats_dict
from repro.lang.parser import parse_program
from repro.obs import context as obs_context
from repro.obs import tracer as obs
from repro.obs.context import TraceContext
from repro.obs.flight import (
    DEFAULT_MAX_DUMPS,
    FlightRecorder,
    dump_dir_from_env,
    recorder,
)
from repro.obs.sinks import JsonlSink
from repro.robust import faults
from repro.robust.budget import AnalysisBudget
from repro.semantics.interp import Interpreter
from repro.store import AnalysisStore
from repro.types.types import arity, reset_fresh_tvars

#: Exit code a worker process dies with under an injected crash fault.
WORKER_CRASH_EXIT = 23


@dataclass
class FileReport:
    """One corpus file's outcome (picklable, across worker processes)."""

    path: str
    ok: bool
    error: str = ""
    d: int = -1
    functions: int = 0
    #: the worker session's accounting (:func:`repro.escape.report.stats_dict`)
    stats: dict = field(default_factory=dict)
    #: ``repro.check`` severity counts when the batch ran ``--check``
    #: (``{"error": n, "warning": n, "hint": n}``), else ``None``
    check: "dict | None" = None
    #: a checker crash, contained like an analysis error (the file's
    #: analysis results stand; its diagnostics are just missing)
    check_error: str = ""
    #: at least one query fell back to the sound ``W^τ`` worst case
    degraded: bool = False
    #: the stable degradation reasons, one per degraded query
    degradations: list = field(default_factory=list)
    #: the file exhausted its attempts and was excluded — the answer on
    #: record is the trivially sound worst case, flagged, never a clean ok
    quarantined: bool = False
    #: worker attempts consumed (1 = first try succeeded)
    attempts: int = 1
    #: the file's trace identity (stamped on every event its analysis
    #: emitted, across driver and worker processes) when tracing was on
    trace_id: str = ""
    #: per-file profile summary replayed from the merged trace shards
    #: (``repro batch --profile --json``), else ``None``
    profile: "dict | None" = None
    #: execution-under-GC summary when the batch ran ``--gc`` (collector
    #: name, gc counters, sanitizer verdict), else ``None``
    gc: "dict | None" = None

    def line(self) -> str:
        if self.quarantined:
            return (
                f"{self.path}: QUARANTINED after {self.attempts} attempt(s) "
                f"— {self.error}"
            )
        if not self.ok:
            return f"{self.path}: ERROR {self.error}"
        text = (
            f"{self.path}: ok — {self.functions} function(s), d={self.d}, "
            f"scc {self.stats.get('scc_hits', 0)} hit(s) / "
            f"{self.stats.get('scc_misses', 0)} miss(es), "
            f"{self.stats.get('iterations', 0)} iteration(s)"
        )
        if self.degraded:
            text += f", DEGRADED ({len(self.degradations)} quer{'y' if len(self.degradations) == 1 else 'ies'})"
        if self.attempts > 1:
            text += f", {self.attempts} attempt(s)"
        if self.check_error:
            text += f", check CRASHED ({self.check_error})"
        elif self.check is not None:
            text += (
                f", check {self.check.get('error', 0)} error(s) / "
                f"{self.check.get('warning', 0)} warning(s) / "
                f"{self.check.get('hint', 0)} hint(s)"
            )
        if self.gc is not None:
            if self.gc.get("error"):
                text += f", gc[{self.gc.get('collector')}] ERROR {self.gc['error']}"
            else:
                text += (
                    f", gc[{self.gc.get('collector')}] "
                    f"{self.gc.get('marked', 0)} marked / "
                    f"{self.gc.get('swept', 0)} swept"
                )
        return text


@dataclass
class BatchReport:
    """The whole batch: per-file reports plus fleet-wide totals."""

    reports: list[FileReport]
    jobs: int
    store_root: str | None

    @property
    def ok(self) -> bool:
        return bool(self.reports) and all(r.ok for r in self.reports)

    @property
    def hard_failures(self) -> list[FileReport]:
        """Files that produced no answer at all (bad input, contained
        crash) — quarantined files are *not* here: they carry the flagged
        worst-case answer instead."""
        return [r for r in self.reports if not r.ok and not r.quarantined]

    @property
    def quarantined_files(self) -> list[FileReport]:
        return [r for r in self.reports if r.quarantined]

    @property
    def degraded_files(self) -> list[FileReport]:
        return [r for r in self.reports if r.degraded]

    @property
    def answered(self) -> bool:
        """The always-answer invariant: every file got *some* sound answer
        (exact, degraded, or flagged-worst-case-by-quarantine)."""
        return bool(self.reports) and all(
            r.ok or r.quarantined for r in self.reports
        )

    @property
    def check_findings(self) -> int:
        """Error-severity checker findings fleet-wide; checker crashes
        count (a file whose diagnostics are missing is not certified)."""
        return sum(
            (r.check or {}).get("error", 0) + (1 if r.check_error else 0)
            for r in self.reports
        )

    def exit_code(self) -> int:
        """The documented 0/1/3/4 taxonomy for this report:

        * 1 — a file produced no answer (hard failure), or nothing ran;
        * 4 — the checker ran and found error-severity diagnostics;
        * 3 — everything answered, but some answer is degraded or some file
          is quarantined (a quarantined file must never read as a clean 0);
        * 0 — every file exact, no findings.
        """
        if not self.reports or self.hard_failures:
            return 1
        if self.check_findings:
            return 4
        if self.quarantined_files or self.degraded_files:
            return 3
        return 0

    def totals(self) -> dict[str, int]:
        """Integer stats summed across every successful file (the nested
        ``store`` section is flattened to ``store_*`` keys; checker counts
        to ``check_*``)."""
        out: dict[str, int] = {}
        for report in self.reports:
            if not report.ok:
                continue
            for key, value in report.stats.items():
                if isinstance(value, bool):
                    continue
                if isinstance(value, int):
                    out[key] = out.get(key, 0) + value
                elif isinstance(value, dict):
                    for sub, sub_value in value.items():
                        if isinstance(sub_value, int) and not isinstance(
                            sub_value, bool
                        ):
                            flat = f"{key}_{sub}"
                            out[flat] = out.get(flat, 0) + sub_value
            if report.check is not None:
                for severity, count in report.check.items():
                    if isinstance(count, int) and not isinstance(count, bool):
                        flat = f"check_{severity}"
                        out[flat] = out.get(flat, 0) + count
            if report.check_error:
                out["check_crashes"] = out.get("check_crashes", 0) + 1
        return out

    def summary(self) -> str:
        totals = self.totals()
        failed = len(self.hard_failures)
        quarantined = len(self.quarantined_files)
        degraded = len(self.degraded_files)
        lines = [
            f"{len(self.reports)} file(s), {self.jobs} job(s)"
            + (f", {failed} failed" if failed else "")
            + (f", {quarantined} quarantined" if quarantined else "")
            + (f", {degraded} degraded" if degraded else "")
            + (f", store: {self.store_root}" if self.store_root else ", no store")
        ]
        if totals:
            lines.append(
                f"scc cache {totals.get('scc_hits', 0)} hit(s) / "
                f"{totals.get('scc_misses', 0)} miss(es), "
                f"{totals.get('iterations', 0)} fixpoint iteration(s), "
                f"{totals.get('eval_steps', 0)} eval step(s)"
            )
            if self.store_root:
                lines.append(
                    f"store {totals.get('store_hits', 0)} hit(s) / "
                    f"{totals.get('store_misses', 0)} miss(es) / "
                    f"{totals.get('store_writes', 0)} write(s)"
                )
        if any(r.check is not None or r.check_error for r in self.reports):
            crashes = totals.get("check_crashes", 0)
            lines.append(
                f"check {totals.get('check_error', 0)} error(s) / "
                f"{totals.get('check_warning', 0)} warning(s) / "
                f"{totals.get('check_hint', 0)} hint(s)"
                + (f", {crashes} checker crash(es)" if crashes else "")
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "store": self.store_root,
            "ok": self.ok,
            "answered": self.answered,
            "degraded": len(self.degraded_files),
            "quarantined": len(self.quarantined_files),
            "exit_code": self.exit_code(),
            "files": [
                {
                    "path": r.path,
                    "ok": r.ok,
                    **({"error": r.error} if not r.ok else {}),
                    **({"d": r.d, "functions": r.functions, "stats": r.stats} if r.ok else {}),
                    **({"check": r.check} if r.check is not None else {}),
                    **({"check_error": r.check_error} if r.check_error else {}),
                    **(
                        {"degraded": True, "degradations": list(r.degradations)}
                        if r.degraded
                        else {}
                    ),
                    **({"quarantined": True} if r.quarantined else {}),
                    **({"attempts": r.attempts} if r.attempts > 1 else {}),
                    **({"trace_id": r.trace_id} if r.trace_id else {}),
                    **({"profile": r.profile} if r.profile is not None else {}),
                    **({"gc": r.gc} if r.gc is not None else {}),
                }
                for r in self.reports
            ],
            "totals": self.totals(),
        }


class BatchInputError(ValueError):
    """A corpus path is unusable — raised at *collection* time so the CLI
    can refuse with a clear usage error (exit 2) instead of shipping the
    bad path into a worker to die as a confusing contained crash."""


def collect_inputs(paths: "list[str | Path]") -> list[Path]:
    """Expand paths into the corpus: directories recurse to ``*.nml``,
    explicit files must exist and be ``.nml``; order is deterministic and
    duplicates dropped.  Returns **resolved** paths, so the dedup key and
    the returned entry are the same path (two spellings of one file —
    ``corpus/a.nml`` and ``./corpus/../corpus/a.nml`` — collapse to one
    input, and every report names the file unambiguously).

    Raises :class:`BatchInputError` for a nonexistent path or an explicit
    non-``.nml`` file.
    """
    inputs: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.rglob("*.nml"))
        elif not path.exists():
            raise BatchInputError(f"{path}: no such file or directory")
        elif path.suffix != ".nml":
            raise BatchInputError(
                f"{path}: not a .nml program (directories are searched for "
                "*.nml; explicit files must be .nml)"
            )
        else:
            found = [path]
        for item in found:
            resolved = item.resolve()
            if resolved not in seen:
                seen.add(resolved)
                inputs.append(resolved)
    return inputs


def execute_under_collector(
    program, collector: str, gc_threshold: int = 256
) -> dict:
    """Execute ``program`` under ``collector`` with the sanitizer armed and
    a tight allocation trigger; returns a picklable summary (never raises —
    runtime errors are contained in the ``error`` key).

    The liveness collector's budgets come from a fresh
    :func:`repro.analysis.heap_liveness.analyze_program` pass; degraded
    facts run as full-reachability marking (the summary records it).
    """
    summary: dict = {"collector": collector, "ok": True}
    budgets = None
    if collector == "liveness":
        facts = analyze_program(program)
        summary["facts_degraded"] = facts.degraded
        budgets = None if facts.degraded else facts.budget_map()
    try:
        interp = Interpreter(
            auto_gc=True,
            gc_threshold=gc_threshold,
            sanitize=True,
            collector=collector,
            liveness=budgets,
        )
        interp.run(program)
    except Exception as error:
        summary["ok"] = False
        summary["error"] = f"{type(error).__name__}: {error}"
        return summary
    summary.update(
        runs=interp.metrics.gc_runs,
        marked=interp.metrics.gc_marked,
        swept=interp.metrics.gc_swept,
        sanitizer_clean=interp.sanitizer.clean if interp.sanitizer else True,
    )
    return summary


def analyze_one(
    path: str,
    store_root: str | None,
    d: int | None = None,
    max_iterations: int | None = None,
    check: bool = False,
    deadline_ms: float | None = None,
    collector: str | None = None,
    gc_threshold: int = 256,
) -> FileReport:
    """Worker body: fully analyze one file (every function, every
    parameter — the same questions ``repro report`` asks), sharing SCC
    results through the store at ``store_root``.

    With ``deadline_ms`` set, every query runs under that budget: a breach
    yields the sound ``W^τ`` worst case for the parameters it cut short
    and the report is flagged ``degraded`` — never an error.

    Module-level on purpose: :func:`run_batch` binds the options with
    :func:`functools.partial`, and the bound body must stay picklable for
    any start method.
    """
    try:
        program = parse_program(Path(path).read_text())
        # run_batch swept the store's stale temp files once, before any
        # worker started.
        store = AnalysisStore(store_root, reap=False) if store_root else None
        analysis = EscapeAnalysis(
            program,
            d=d,
            max_iterations=max_iterations,
            store=store,
            budget=(
                AnalysisBudget(deadline_s=deadline_ms / 1000.0)
                if deadline_ms is not None
                else None
            ),
        )
        functions = 0
        exact = 0
        degradations: list[str] = []
        for name in program.binding_names():
            if arity(analysis.scheme(name).body) == 0:
                continue
            for result in analysis.global_all(name):
                if result.degraded:
                    degradations.append(
                        f"{result.function}/{result.param_index}: "
                        f"{result.degradation.reason}"
                    )
                else:
                    exact += 1
            functions += 1
        # ``d`` falls out of the (memoized) solve unless every query was cut
        # short: a fully degraded file never ran to a chain bound.
        report = FileReport(
            path=str(path),
            ok=True,
            d=analysis.solve(None).d if exact or not degradations else -1,
            functions=functions,
            stats=stats_dict(analysis.stats),
            degraded=bool(degradations),
            degradations=degradations,
        )
        if check:
            # The audit asks its questions through a session derived from
            # the file's, so an SCC the analysis solved is not solved again.
            try:
                report.check = check_program(
                    program, path=str(path), session=analysis.session
                ).counts()
            except Exception as error:  # contained like an analysis error
                report.check_error = f"{type(error).__name__}: {error}"
        if collector is not None:
            report.gc = execute_under_collector(
                program, collector, gc_threshold=gc_threshold
            )
        return report
    except Exception as error:  # a bad corpus file must not sink the batch
        return FileReport(
            path=str(path), ok=False, error=f"{type(error).__name__}: {error}"
        )


# -- the supervisor ----------------------------------------------------------


@dataclass
class _Task:
    """One corpus file moving through the supervision state machine."""

    index: int
    path: str
    #: the file's root trace context — worker attempts run child hops of it
    ctx: "TraceContext | None" = None
    attempts: int = 0
    #: why the last failed attempt failed
    error: str = ""


def _quarantined_report(task: _Task, reason: str) -> FileReport:
    """The flagged answer of record for a poison file: the trivially sound
    worst case, never mistakable for a clean result."""
    return FileReport(
        path=task.path,
        ok=False,
        error=task.error,
        quarantined=True,
        attempts=task.attempts,
        degradations=[f"quarantined: {reason}"],
        trace_id=task.ctx.trace_id if task.ctx is not None else "",
    )


def _worker_faults_for(plan, launch: int):
    """The supervisor-side interpretation of worker-stage faults for the
    ``launch``-th worker attempt (1-based, across the whole run): returns
    ``(crash, hang_s, child_plan)``.  Worker-stage ordinals must be
    counted by the supervisor — a worker activates the plan afresh for
    each attempt, and a replaced worker starts from nothing — so they are
    stripped from the plan the worker activates."""
    if plan is None:
        return False, 0.0, None
    crash = plan.worker_crash_at == launch
    hang_s = 0.0
    for slow in plan.slow_stages:
        if slow.stage == "worker" and slow.matches(launch):
            hang_s = max(hang_s, slow.seconds)
    child_plan = dataclasses.replace(
        plan,
        worker_crash_at=None,
        slow_stages=tuple(s for s in plan.slow_stages if s.stage != "worker"),
    )
    return crash, hang_s, child_plan


def _worker_loop(conn, worker, supervisor_ends: list) -> None:
    """Worker-process entry: answer one file per message until the
    supervisor sends ``None`` or goes away.

    ``supervisor_ends`` are the supervisor's ends of this worker's Pipe and
    of its peers' Pipes, which the fork copied in; closing them lets this
    worker see end-of-file if the supervisor dies.  Before each file the
    type-variable counter goes back to where the fork left it, so every
    file is analyzed as if by a freshly forked worker.
    """
    # Under a fork start method the child inherits the driver's active
    # tracer — and with it the driver's open trace file.  Events must go
    # to per-attempt shards, never interleave into the parent's.
    obs._active = None
    # Ctrl-C reaches the whole process group; the supervisor handles it
    # and stops its workers, idle ones included.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in supervisor_ends:
        end.close()
    first_tvar = reset_fresh_tvars()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        reset_fresh_tvars(first_tvar)
        _answer(conn, worker, *message)


def _answer(
    conn,
    worker,
    path: str,
    plan,
    crash: bool,
    hang_s: float,
    ctx_wire: "dict | None",
    shard_path: "str | None",
    launch: int,
    flight: "tuple[Path, int] | None",
) -> None:
    """One worker attempt: activate the (stripped) fault plan, honour the
    supervisor's crash/hang verdicts, run ``worker(path)``, ship the report
    back with the number of flight dumps the attempt wrote.

    ``ctx_wire`` is the file's trace context carried across the Pipe — the
    driver's hop, which the worker re-attaches so every event it emits
    (``transfer_eval``, ``worklist_*``, ``degradation``, ...) is stamped
    with the originating trace_id.  ``shard_path`` names the attempt's own
    JSONL shard; the driver merges shards after the run.  ``flight`` is
    ``(dump_dir, max_dumps)`` when the attempt's own flight recorder may
    dump its black box, ``None`` once the run's dumps are spent.
    """
    ctx = TraceContext.from_wire(ctx_wire)
    with contextlib.ExitStack() as stack:
        sinks: list = []
        if shard_path is not None:
            sink = JsonlSink.open(shard_path)
            stack.callback(sink.close)
            sinks.append(sink)
        box = None
        if flight is not None:
            box = FlightRecorder(
                dump_dir=flight[0],
                max_dumps=flight[1],
                label=f"worker-flight-{os.getpid()}-{launch:04d}",
            )
            sinks.append(box)
        if sinks:
            stack.enter_context(obs.activate(obs.Tracer(sinks=sinks)))
        if ctx is not None:
            stack.enter_context(obs_context.attach(ctx))
        try:
            scope = (
                faults.inject(plan) if plan is not None else contextlib.nullcontext()
            )
            with scope:
                if crash:
                    os._exit(WORKER_CRASH_EXIT)
                if hang_s:
                    time.sleep(hang_s)
                report = worker(path)
            if ctx is not None:
                report.trace_id = ctx.trace_id
            conn.send((report, len(box.dumps) if box is not None else 0))
        except Exception as error:  # answer even on unexpected worker errors
            with contextlib.suppress(Exception):
                report = FileReport(
                    path=path,
                    ok=False,
                    error=f"{type(error).__name__}: {error}",
                    trace_id=ctx.trace_id if ctx is not None else "",
                )
                conn.send((report, len(box.dumps) if box is not None else 0))


@dataclass(eq=False)
class _Worker:
    """A long-lived worker process and the attempt it is running, if any."""

    process: object
    conn: object
    task: "_Task | None" = None
    deadline: "float | None" = None


def _stop(worker: _Worker, kill: bool) -> None:
    """Reap ``worker`` (terminating it first when ``kill``) and close its Pipe."""
    if kill:
        worker.process.terminate()
    worker.process.join(5.0)
    if worker.process.is_alive():  # pragma: no cover - hard kill path
        worker.process.kill()
        worker.process.join()
    worker.conn.close()


def _run_supervised(
    paths: list[str],
    worker,
    jobs: int,
    max_attempts: int,
    timeout_s: float | None,
    plan,
    contexts: "list[TraceContext] | None" = None,
    trace_dir: "str | None" = None,
    flight_dir: "Path | None" = None,
) -> list[FileReport]:
    """Supervision over at most ``jobs`` long-lived workers: per-file
    preemptive timeouts, crash replacement, quarantine after
    ``max_attempts`` failed attempts.

    A worker is forked when there is a file for it and fewer than ``jobs``
    workers are alive, and then answers one file per message.  It is
    replaced only when it dies or overruns a file's deadline (which runs
    from dispatch), and the file goes back on the queue; every worker is
    shut down and reaped before this returns.

    With ``contexts`` (one root :class:`TraceContext` per file), every
    worker attempt runs a child hop of its file's trace, and supervisor
    events about a file (``retry``, ``timeout``, ``worker_restart``,
    ``quarantine``) are stamped with the same trace_id.  With
    ``trace_dir``, each worker attempt writes its own JSONL shard
    (``worker-NNNN.jsonl``) there.  With ``flight_dir``, worker attempts
    dump their flight recorders there until the answers have brought back
    ``DEFAULT_MAX_DUMPS`` dumps, so a run writes at most ``jobs`` times
    that many however large the corpus.
    """
    ctx = get_context()
    tasks = deque(
        _Task(index=i, path=path, ctx=contexts[i] if contexts else None)
        for i, path in enumerate(paths)
    )
    workers: list[_Worker] = []
    reports: dict[int, FileReport] = {}
    launches = 0
    dumps_left = DEFAULT_MAX_DUMPS if flight_dir is not None else 0

    def stamped(task: _Task):
        return obs_context.attach(task.ctx) if task.ctx is not None else (
            contextlib.nullcontext()
        )

    def fail(task: _Task, cause_kind: str, cause: str) -> None:
        task.error = cause
        with stamped(task):
            if task.attempts < max_attempts:
                obs.emit(
                    "retry", key=task.path, attempt=task.attempts, reason=cause_kind
                )
                tasks.append(task)
            else:
                obs.emit(
                    "quarantine",
                    key=task.path,
                    attempts=task.attempts,
                    reason=cause_kind,
                )
                reports[task.index] = _quarantined_report(task, cause_kind)

    def fork() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_loop,
            args=(child_conn, worker, [w.conn for w in workers] + [parent_conn]),
            daemon=True,
        )
        process.start()
        child_conn.close()
        workers.append(_Worker(process, parent_conn))
        return workers[-1]

    def replace(run: _Worker, kill: bool) -> _Task:
        workers.remove(run)
        _stop(run, kill)
        task, run.task = run.task, None
        return task

    try:
        while tasks or any(w.task is not None for w in workers):
            now = time.monotonic()
            # Dispatch to idle workers, forking up to ``jobs`` of them.
            while tasks:
                run = next((w for w in workers if w.task is None), None)
                if run is None:
                    if len(workers) >= jobs:
                        break
                    run = fork()
                task = tasks.popleft()
                launches += 1
                task.attempts += 1
                crash, hang_s, child_plan = _worker_faults_for(plan, launches)
                wire = task.ctx.child().to_wire() if task.ctx is not None else None
                shard_path = (
                    os.path.join(trace_dir, f"worker-{launches:04d}.jsonl")
                    if trace_dir is not None
                    else None
                )
                run.task = task
                run.deadline = now + timeout_s if timeout_s is not None else None
                flight = (flight_dir, dumps_left) if dumps_left > 0 else None
                message = (
                    task.path,
                    child_plan,
                    crash,
                    hang_s,
                    wire,
                    shard_path,
                    launches,
                    flight,
                )
                # A worker that died while idle fails this send or the next
                # wait; either way the attempt is handled as a crash below.
                with contextlib.suppress(OSError):
                    run.conn.send(message)
            busy = [w for w in workers if w.task is not None]
            # Wait for an answer, a death, or a deadline to pass.
            deadlines = [d for w in busy if (d := w.deadline) is not None]
            timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
            handles = {w.conn: w for w in busy}
            handles.update({w.process.sentinel: w for w in busy})
            ready = connection_wait(list(handles), timeout=timeout)
            now = time.monotonic()
            for run in dict.fromkeys(handles[h] for h in ready):
                report: FileReport | None = None
                if run.conn.poll():
                    with contextlib.suppress(EOFError, OSError):
                        report, dumped = run.conn.recv()
                        dumps_left -= dumped
                if report is not None:
                    report.attempts = run.task.attempts
                    reports[run.task.index] = report
                    run.task = None
                    continue
                # Died without an answer: crashed.
                task = replace(run, kill=False)
                with stamped(task):
                    obs.emit(
                        "worker_restart",
                        key=task.path,
                        attempt=task.attempts,
                        cause="worker-crashed",
                    )
                fail(
                    task,
                    "worker-crashed",
                    f"worker crashed (exit code {run.process.exitcode})",
                )
            # Preempt the hung.
            for run in busy:
                if run.task is None or run.deadline is None or now < run.deadline:
                    continue
                task = replace(run, kill=True)
                with stamped(task):
                    obs.emit("timeout", key=task.path, deadline_s=timeout_s)
                    obs.emit(
                        "worker_restart",
                        key=task.path,
                        attempt=task.attempts,
                        cause="timeout",
                    )
                fail(
                    task,
                    "timeout",
                    f"worker timed out after {timeout_s:g}s",
                )
    finally:
        for run in workers:
            if run.task is None:
                with contextlib.suppress(OSError):
                    run.conn.send(None)
        for run in workers:
            _stop(run, kill=run.task is not None)
    return [reports[i] for i in sorted(reports)]


def run_batch(
    paths: "list[str | Path]",
    store_root: "str | Path | None" = None,
    jobs: int = 1,
    d: int | None = None,
    max_iterations: int | None = None,
    check: bool = False,
    deadline_ms: float | None = None,
    timeout_s: float | None = None,
    max_attempts: int = 3,
    fault_plan=None,
    collector: str | None = None,
    gc_threshold: int = 256,
    trace: bool = False,
    trace_dir: "str | Path | None" = None,
    worker=None,
) -> BatchReport:
    """Analyze the corpus on at most ``jobs`` supervised worker processes
    (one when ``jobs <= 1``); a file gets ``max_attempts`` attempts before
    it is quarantined.

    ``worker`` substitutes the per-file body: a picklable callable of one
    path that returns a :class:`FileReport` and carries its own options
    (``functools.partial`` of a module-level function).  This is how
    ``repro diff snapshot`` rides the same supervision (timeouts, crash
    restarts, quarantine, shared store) with a different per-file job.
    The default body is :func:`analyze_one` with ``store_root``, ``d``,
    ``max_iterations``, ``check``, ``deadline_ms``, ``collector`` and
    ``gc_threshold`` bound.

    With ``trace`` (or a ``trace_dir``), every file gets its own root
    :class:`TraceContext`; driver- and worker-side events about a file
    are stamped with its trace_id, and worker attempts write per-attempt
    JSONL shards into ``trace_dir`` for the driver to merge.  Worker
    attempts' flight recorders dump into the installed recorder's
    directory (:func:`repro.obs.flight.recorder`), or into
    ``REPRO_FLIGHT_DIR`` when no recorder is installed, until the run's
    ``DEFAULT_MAX_DUMPS`` are spent (at most ``jobs`` times that many).
    """
    inputs = collect_inputs(paths)
    root = str(store_root) if store_root is not None else None
    if root:
        # Sweep stale temp files once per run; workers open with reap=False.
        AnalysisStore(root)
    if worker is None:
        worker = functools.partial(
            analyze_one,
            store_root=root,
            d=d,
            max_iterations=max_iterations,
            check=check,
            deadline_ms=deadline_ms,
            collector=collector,
            gc_threshold=gc_threshold,
        )
    shard_dir = str(trace_dir) if trace_dir is not None else None
    contexts = (
        [TraceContext.mint() for _ in inputs] if (trace or shard_dir) else None
    )
    if shard_dir is not None:
        Path(shard_dir).mkdir(parents=True, exist_ok=True)
    installed = recorder()
    reports = _run_supervised(
        [str(p) for p in inputs],
        worker,
        max(1, jobs),
        max_attempts,
        timeout_s,
        fault_plan,
        contexts,
        shard_dir,
        installed.dump_dir if installed is not None else dump_dir_from_env(),
    )
    return BatchReport(reports=reports, jobs=max(1, jobs), store_root=root)

"""The four PF1 workloads, each a closed loop over seeded inputs.

Every workload alternates *pairs* of passes.  A cold pass meets its inputs
for the first time since the state it depends on was reset; the warm pass
that follows repeats the same operations against whatever that state now
holds.  The state is the analysis store for ``corpus-snapshot``, the
daemon (store and all) for ``serve-keepalive``, and nothing at all for
``cli-cold`` and ``runtime-gc``, whose operations share no cache — there
the two pass times are predicted equal.

A workload function takes a :class:`Context`, the seed, the window length
and an operation floor, and returns an :class:`Outcome`: set-up times,
per-operation latencies, pass times, and the attempted/failed counts.
Every operation's output is checked against ``expected.json`` (or, for
``runtime-gc``, against Python's ``sorted``/``reversed``); a wrong output,
a nonzero exit, a non-200 reply, ``ok: false`` or ``degraded: true``
counts as a failed operation.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path

import golden

#: A run sets up at least this many times, and for at least this many
#: seconds; ``setup_s`` is the median.  A set-up of a few milliseconds
#: would otherwise get a median of five jittery samples.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0

#: One cli-cold pass: 5 commands weighted 40/20/20/20.  Short passes give
#: the pass-time medians many samples, so a burst of load from elsewhere
#: on the host disturbs few of them.
CLI_PASS = ("analyze",) * 2 + ("check", "optimize", "run")
#: cli-cold prints p90 over at least this many commands.
CLI_MIN_OPS = 100

#: One serve-keepalive pass: 40 requests (50/30/20) over 8 new sources.
SERVE_PASS = ("analyze",) * 20 + ("check",) * 12 + ("optimize",) * 8
SERVE_FILES_PER_PASS = 8
SERVE_CLIENTS = 2

#: runtime-gc: (kind, sizes).  Sizes sit at the quartiles of the ranges
#: (ps n in [100, 200], rev n in [50, 110]) so that a seed changes the
#: list contents, not the amount of work in a pass.
GC_KINDS = (
    ("ps", (125, 175)),
    ("ps''", (125, 175)),
    ("ps-planned", (125, 175)),
    ("rev", (65, 95)),
    ("rev'", (65, 95)),
)
GC_THRESHOLD = 256
GC_MIN_OPS = 100
COLLECTORS = ("mark-sweep", "liveness", "copying")


@dataclass
class Context:
    """Where a run reads its inputs and writes its scratch files."""

    root: Path
    tmp: Path
    expected: dict
    corpus: list[str]

    @property
    def env(self) -> dict:
        return golden.child_env(self.root, self.tmp)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))

    def source(self, rel: str) -> str:
        return (self.root / golden.EXAMPLES / rel).read_text(encoding="utf-8")

    def repro(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro", *args]


@dataclass
class Outcome:
    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    #: (kind, seconds, operations) per pass, kind "cold" or "warm"
    passes: list[tuple[str, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def run_pairs(outcome: Outcome, seconds: float, min_ops: int, schedule, run_pass) -> None:
    """Alternate cold and warm passes over the work ``schedule`` yields,
    always ending on a complete pair, until at least ``min_ops`` operations
    ran and another pair would end farther past the window than the run
    now falls short of it."""
    started = time.perf_counter()
    pairs = 0
    for work in schedule:
        for kind in ("cold", "warm"):
            ops_before = len(outcome.latencies_s)
            seconds_taken = run_pass(kind, work)
            outcome.passes.append((kind, seconds_taken, len(outcome.latencies_s) - ops_before))
        pairs += 1
        elapsed = time.perf_counter() - started
        if len(outcome.latencies_s) >= min_ops and elapsed + elapsed / pairs / 2 >= seconds:
            return


def timed_setups(outcome: Outcome, setup):
    """Run ``setup`` at least :data:`SETUP_REPEATS` times and
    :data:`SETUP_MIN_S` seconds, timing each; returns the last result
    (earlier results are torn down by ``setup`` itself)."""
    result = None
    first = time.perf_counter()
    while len(outcome.setup_s) < SETUP_REPEATS or time.perf_counter() - first < SETUP_MIN_S:
        started = time.perf_counter()
        result = setup(result)
        outcome.setup_s.append(time.perf_counter() - started)
    return result


def run_child(argv: list[str], ctx: Context, timeout_s: float = 120.0,
              capture: bool = True) -> subprocess.CompletedProcess:
    """Run a child to completion.  ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms, which would quantize every measured time;
    here the wait blocks and a timer kills a child that hangs (its exit
    code is then negative)."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdout=pipe, stderr=pipe,
                          text=True) as child:
        watchdog = threading.Timer(timeout_s, child.kill)
        watchdog.start()
        try:
            out, err = child.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, child.returncode, out, err)


def prime_bytecode(ctx: Context) -> None:
    """Compile the package once, as an install would, so no timed command
    pays for it.  A child compiles it: compiling here would grow this
    process, which ``peak_rss_mb`` counts."""
    done = run_child([sys.executable, "-m", "compileall", "-q", str(ctx.root / "src" / "repro")],
                     ctx, capture=False)
    if done.returncode != 0:
        raise RuntimeError(f"compileall exited {done.returncode}")


def run_value(source: str) -> str:
    """What ``repro run`` prints for ``source``."""
    from repro.lang.parser import parse_program
    from repro.semantics.interp import Interpreter

    interp = Interpreter()
    return str(interp.to_python(interp.run(parse_program(source))))


def verify_programs(outcome: Outcome, programs: dict, expected: dict) -> None:
    """Run each distinct optimized program once; ``programs`` maps
    ``(rel, source)`` to the number of operations that returned it."""
    for (rel, source), uses in programs.items():
        want = expected["files"][rel]["run"]
        try:
            got = run_value(source)
        except Exception as error:  # a program that no longer runs is a failure
            got = f"{type(error).__name__}: {error}"
        if got != want:
            outcome.fail(f"optimized {rel} runs to {got!r}, want {want!r}", uses)


# -- cli-cold ---------------------------------------------------------------


def cli_schedule(corpus: list[str], seed: int):
    """Endless seeded passes of (command, file): each pass takes the next
    ``len(CLI_PASS)`` files of a seeded shuffle of the corpus."""
    rng = random.Random(seed)
    files = list(corpus)
    rng.shuffle(files)
    at = 0
    while True:
        if at + len(CLI_PASS) > len(files):
            rng.shuffle(files)
            at = 0
        commands = list(CLI_PASS)
        rng.shuffle(commands)
        yield list(zip(commands, files[at:at + len(CLI_PASS)]))
        at += len(CLI_PASS)


def cli_argv(ctx: Context, command: str, rel: str) -> list[str]:
    path = f"{golden.EXAMPLES}/{rel}"
    extra = ["--json"] if command in ("analyze", "check") else []
    return ctx.repro(command, path, *extra)


def cli_cold(ctx: Context, seed: int, seconds: float, min_ops: int = CLI_MIN_OPS) -> Outcome:
    """A developer's per-command wait: one client runs ``python -m repro
    analyze|check|optimize|run FILE`` subprocesses back to back."""
    outcome = Outcome()

    def setup(_previous):
        golden.verify_corpus(ctx.expected, ctx.root)
        prime_bytecode(ctx)
        return cli_schedule(ctx.corpus, seed)

    schedule = timed_setups(outcome, setup)
    optimized: dict = {}

    def run_pass(kind, work):
        started = time.perf_counter()
        for command, rel in work:
            op_started = time.perf_counter()
            done = run_child(cli_argv(ctx, command, rel), ctx)
            outcome.latencies_s.append(time.perf_counter() - op_started)
            outcome.attempted += 1
            check_cli(outcome, ctx, command, rel, done, optimized)
        return time.perf_counter() - started

    run_pairs(outcome, seconds, min_ops, schedule, run_pass)
    verify_programs(outcome, optimized, ctx.expected)
    return outcome


def check_cli(outcome: Outcome, ctx: Context, command: str, rel: str, done, optimized: dict) -> None:
    if done.returncode != 0:
        outcome.fail(f"repro {command} {rel}: exit {done.returncode}")
        return
    want = ctx.expected["files"][rel]
    if command == "run":
        ok = done.stdout.strip() == want["run"]
    elif command == "optimize":
        key = (rel, done.stdout)
        optimized[key] = optimized.get(key, 0) + 1
        ok = True  # checked by running it once the window closes
    elif command == "check":
        ok = golden.check_digest(done.stdout) == want["check_sha256"]
    else:
        ok = golden.sha256_text(done.stdout) == want["analyze_sha256"]
    if not ok:
        outcome.fail(f"repro {command} {rel}: output differs from expected.json")


# -- corpus-snapshot -----------------------------------------------------------


def corpus_snapshot(ctx: Context, seed: int, seconds: float, min_ops: int = 4) -> Outcome:
    """The CI regression gate: ``repro diff snapshot examples --jobs 2``,
    cold passes on a fresh store, warm passes on the cold pass's store.

    The input is the whole fixed corpus, so the seed changes nothing; each
    pass's artifact tree must equal the golden ``tree_digest``."""
    del seed
    from repro.diff.snapshot import tree_digest

    outcome = Outcome()

    def setup(_previous):
        golden.verify_corpus(ctx.expected, ctx.root)
        prime_bytecode(ctx)

    timed_setups(outcome, setup)
    store: list[Path] = []

    def run_pass(kind, _work):
        if kind == "cold":
            store[:] = [ctx.fresh_dir("store-")]
        out = ctx.tmp / f"snapshot-{len(outcome.passes)}"
        argv = ctx.repro(
            "diff", "snapshot", golden.EXAMPLES, "--jobs", "2",
            "--store", str(store[0]), "--out", str(out),
        )
        started = time.perf_counter()
        code = run_child(argv, ctx, timeout_s=150).returncode
        elapsed = time.perf_counter() - started
        outcome.latencies_s.append(elapsed)
        outcome.attempted += 1
        if code != 0:
            outcome.fail(f"{kind} snapshot exited {code}")
        elif tree_digest(out) != ctx.expected["tree_digest"]:
            outcome.fail(f"{kind} snapshot tree differs from expected.json")
        shutil.rmtree(out, ignore_errors=True)
        if kind == "warm":
            shutil.rmtree(store[0], ignore_errors=True)
        return elapsed

    run_pairs(outcome, seconds, min_ops, itertools.repeat(None), run_pass)
    return outcome


# -- serve-keepalive --------------------------------------------------------


def serve_schedule(ctx: Context, seed: int):
    """Endless seeded passes of (endpoint, file): each pass sends the
    50/30/20 mix over the next 8 files of a seeded shuffle, 5 requests per
    file, so sources repeat within the pass and hit the daemon's store.

    Only files whose ``/optimize`` answer is not degraded are drawn: the
    daemon marks a skipped optimization ``degraded: true``, which this
    benchmark counts as a failure."""
    rng = random.Random(seed)
    files = [rel for rel in ctx.corpus if not ctx.expected["files"][rel]["optimize_degraded"]]
    rng.shuffle(files)
    at = 0
    while True:
        if at + SERVE_FILES_PER_PASS > len(files):
            rng.shuffle(files)
            at = 0
        chosen = files[at:at + SERVE_FILES_PER_PASS]
        at += SERVE_FILES_PER_PASS
        targets = chosen * (len(SERVE_PASS) // len(chosen))
        endpoints = list(SERVE_PASS)
        rng.shuffle(targets)
        rng.shuffle(endpoints)
        yield list(zip(endpoints, targets))


class Daemon:
    """A ``repro serve --port 0`` child; :meth:`stop` always reaps it."""

    def __init__(self, ctx: Context, store: Path):
        self.process = subprocess.Popen(
            ctx.repro("serve", "--port", "0", "--store", str(store)),
            cwd=ctx.root, env=ctx.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = self.process.stderr.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            self.host, self.port = host, int(port)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL after 15 s; the wait blocks
        rather than polls, since set-up time includes it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            watchdog = threading.Timer(15.0, self.process.kill)
            watchdog.start()
            try:
                self.process.wait()
            finally:
                watchdog.cancel()
        self.process.stderr.close()


def post(conn: HTTPConnection, endpoint: str, body: bytes) -> tuple[int, dict]:
    conn.request("POST", f"/{endpoint}", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def send_all(conns: list, requests: list, sources: dict, record) -> None:
    """Closed loop: each client thread takes the next request as soon as
    its previous reply arrived.  ``record(endpoint, rel, seconds, status,
    doc)`` runs on the client thread."""
    lock = threading.Lock()
    queue = iter(requests)
    crashed: list[BaseException] = []

    def client(conn: HTTPConnection) -> None:
        try:
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                endpoint, rel = item
                started = time.perf_counter()
                try:
                    status, doc = post(conn, endpoint, sources[rel])
                except (OSError, ValueError) as error:
                    status, doc = 0, {"error": f"{type(error).__name__}: {error}"}
                    conn.close()  # reconnects on the next request
                record(endpoint, rel, time.perf_counter() - started, status, doc)
        except BaseException as error:  # surfaced after join
            crashed.append(error)

    threads = [threading.Thread(target=client, args=(conn,)) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]


def request_body(source: str) -> bytes:
    return json.dumps({"source": source}).encode("utf-8")


def serve_keepalive(ctx: Context, seed: int, seconds: float, min_ops: int = 0) -> Outcome:
    """What an editor or tool client waits for: two client threads, each
    on one HTTP/1.1 keep-alive connection to a ``repro serve`` daemon
    started in set-up.  No import or batch work happens in the window."""
    outcome = Outcome()

    def setup(previous):
        if previous is not None:
            previous.stop()
        golden.verify_corpus(ctx.expected, ctx.root)
        prime_bytecode(ctx)
        return Daemon(ctx, ctx.fresh_dir("serve-store-"))

    schedule = serve_schedule(ctx, seed)
    sources = {rel: request_body(ctx.source(rel)) for rel in ctx.corpus}
    daemon = timed_setups(outcome, setup)
    conns = [HTTPConnection(daemon.host, daemon.port, timeout=120) for _ in range(SERVE_CLIENTS)]
    lock = threading.Lock()
    optimized: dict = {}
    analyzed: dict = {}

    def record(endpoint, rel, elapsed, status, doc):
        with lock:
            outcome.latencies_s.append(elapsed)
            outcome.attempted += 1
            if status != 200 or doc.get("ok") is not True or doc.get("degraded"):
                outcome.fail(f"/{endpoint} {rel}: status {status}, "
                             f"ok {doc.get('ok')}, degraded {doc.get('degraded')}")
            elif endpoint == "optimize":
                key = (rel, doc["program"])
                optimized[key] = optimized.get(key, 0) + 1
            elif endpoint == "analyze":
                key = (rel, json.dumps(doc["results"], sort_keys=True))
                analyzed[key] = analyzed.get(key, 0) + 1

    def run_pass(_kind, requests):
        started = time.perf_counter()
        send_all(conns, requests, sources, record)
        return time.perf_counter() - started

    try:
        run_pairs(outcome, seconds, min_ops, schedule, run_pass)
    finally:
        for conn in conns:
            conn.close()
        daemon.stop()
    verify_programs(outcome, optimized, ctx.expected)
    verify_analyses(outcome, analyzed, ctx.expected)
    return outcome


def verify_analyses(outcome: Outcome, analyzed: dict, expected: dict) -> None:
    """A daemon ``/analyze`` answer must carry exactly the results
    ``repro analyze --json`` prints for the same file."""
    from repro.canonical import canonical_json

    for (rel, results_json), uses in analyzed.items():
        results = [
            {k: v for k, v in entry.items() if k != "degraded"}
            for entry in json.loads(results_json)
        ]
        doc = {"errors": [], "mode": "exact", "results": results}
        if golden.sha256_text(canonical_json(doc) + "\n") != expected["files"][rel]["analyze_sha256"]:
            outcome.fail(f"/analyze {rel}: results differ from expected.json", uses)


# -- runtime-gc ---------------------------------------------------------------


@dataclass
class PoolProgram:
    label: str
    program: object
    expected: list
    source: str


def build_pool(seed: int, labels: "tuple[str, ...] | None" = None) -> list[PoolProgram]:
    """The paper's programs at two sizes each, on seeded list contents:
    ``ps``, ``PS''``, ``plan_optimizations``+``apply_plan`` of ``ps``,
    ``rev`` and ``REV'`` (only those named in ``labels``, if given; the
    lists do not depend on the selection)."""
    from repro.bench.workloads import literal, ps_program, rev_program
    from repro.lang.pretty import pretty_program
    from repro.opt.driver import apply_plan, plan_optimizations
    from repro.opt.pipeline import paper_ps_double_prime, paper_rev_prime

    builders = {
        "ps": ps_program,
        "ps''": lambda xs: paper_ps_double_prime(f"ps {literal(xs)}").program,
        "ps-planned": lambda xs: apply_plan(plan_optimizations(ps_program(xs)))[0],
        "rev": rev_program,
        "rev'": lambda xs: paper_rev_prime(f"rev {literal(xs)}").program,
    }
    rng = random.Random(seed)
    pool = []
    for kind, sizes in GC_KINDS:
        for n in sizes:
            xs = [rng.randint(0, 1000) for _ in range(n)]
            label = f"{kind}-{n}"
            if labels is not None and label not in labels:
                continue
            expected = sorted(xs) if kind.startswith("ps") else list(reversed(xs))
            program = builders[kind](xs)
            pool.append(PoolProgram(label, program, expected, pretty_program(program)))
    return pool


def gc_run(program, collector: str):
    """One runtime-gc operation: liveness budgets (for the liveness
    collector, as ``repro run --gc liveness`` computes them), then the run."""
    from repro.analysis.heap_liveness import analyze_program
    from repro.semantics.interp import Interpreter

    budgets = None
    if collector == "liveness":
        facts = analyze_program(program)
        budgets = None if facts.degraded else facts.budget_map()
    interp = Interpreter(auto_gc=True, gc_threshold=GC_THRESHOLD, collector=collector,
                         liveness=budgets)
    return interp.to_python(interp.run(program)), interp


def gc_schedule(pool: list[PoolProgram], seed: int):
    """Pass ``k`` runs every pool program once, in a seeded order, with
    collectors rotated so each program meets every collector."""
    rng = random.Random(seed)
    offset = rng.randrange(len(COLLECTORS))
    k = 0
    while True:
        ops = [(entry, COLLECTORS[(j + k + offset) % len(COLLECTORS)])
               for j, entry in enumerate(pool)]
        rng.shuffle(ops)
        yield ops
        k += 1


def runtime_gc(ctx: Context, seed: int, seconds: float, min_ops: int = GC_MIN_OPS) -> Outcome:
    """The paper's payoff at run time: one in-process client runs the
    paper's programs under the collector zoo with the GC armed."""
    outcome = Outcome()
    pool = timed_setups(outcome, lambda _previous: build_pool(seed))

    def run_pass(_kind, ops):
        started = time.perf_counter()
        for entry, collector in ops:
            op_started = time.perf_counter()
            try:
                value, _ = gc_run(entry.program, collector)
            except Exception as error:  # a crashing run is a failed operation
                value = f"{type(error).__name__}: {error}"
            outcome.latencies_s.append(time.perf_counter() - op_started)
            outcome.attempted += 1
            if value != entry.expected:
                outcome.fail(f"{entry.label} under {collector}: wrong result")
        return time.perf_counter() - started

    run_pairs(outcome, seconds, min_ops, gc_schedule(pool, seed), run_pass)
    return outcome


RUNNERS = {
    "cli-cold": cli_cold,
    "corpus-snapshot": corpus_snapshot,
    "serve-keepalive": serve_keepalive,
    "runtime-gc": runtime_gc,
}
WORKLOADS = tuple(RUNNERS)

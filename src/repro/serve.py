"""``repro serve`` — the always-answer analysis daemon.

A long-running HTTP/JSON service over the same engine the CLI drives,
composed from pieces that already exist: the hardened engine's ``W^τ``
degradation (a request can *always* be answered, just more weakly), the
content-addressed :class:`~repro.store.AnalysisStore` (cross-request SCC
warmth), the :class:`~repro.obs.metrics.MetricsRegistry` (scraped at
``/metrics``), and a :class:`~repro.robust.resilience.CircuitBreaker` for
per-target circuit breaking.

Endpoints (all JSON):

* ``POST /analyze``  — ``{"source": ..., "function"?, "d"?,
  "deadline_ms"?}`` → every global escape test, exact or degraded;
* ``POST /check``    — ``{"source": ..., "passes"?}`` → the static
  checker's diagnostics and counts;
* ``POST /optimize`` — ``{"source": ..., "validate"?, "deadline_ms"?,
  "gc"?}`` → the hardened optimization pipeline's program + degradation
  report, through one query session on the shared store;
* ``GET /metrics``   — the registry as ``name{label=value} value`` lines
  (histograms include p50/p95/p99, so latency SLOs scrape directly);
* ``GET /healthz``   — liveness;
* ``GET /debug/flight`` — the flight recorder's black box right now.

Every request gets a **trace context**: a ``traceparent`` header (W3C
``00-<trace_id>-<span_id>-01``) is honoured — the response joins the
caller's trace as a child hop — and absent one a fresh trace is minted.
Responses echo ``"trace_id"`` so a degraded answer can be correlated with
the daemon's trace shards and flight dumps (`repro explain`).

The degraded-answer contract mirrors the CLI exit taxonomy: a response the
engine had to cut short is still HTTP **200** with ``"degraded": true``
and ``"exit_code": 3`` — degradation is service, not failure.  Only an
input that cannot be answered soundly at all (unparseable, untypeable —
there is no ``W^τ`` without a type) or a malformed request field is a
client error (400), and only an unexpected internal fault is a 500; both
still carry a structured JSON body, so *every* request is answered.

Identical in-flight requests are **coalesced** by content digest: the
first becomes the leader, concurrent duplicates wait on its result and are
answered from it (flagged ``"coalesced": true``).  A per-digest circuit
breaker short-circuits targets that keep failing internally to an
immediate degraded answer until a cooldown passes.

The server is a stdlib :class:`~http.server.ThreadingHTTPServer`; SIGTERM
and SIGINT shut it down gracefully (in-flight requests finish, then the
listener closes).
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# The whole handler stack is imported here, before the daemon listens, so
# no request pays for an import and no two handler threads import the same
# modules at once.  The checker's passes, and the validation run of
# ``/optimize``, import their modules when they first run, so those modules
# are named here.
import repro.check.audit  # noqa: F401
import repro.check.lint  # noqa: F401
import repro.machine.compiler  # noqa: F401
import repro.machine.verify  # noqa: F401
import repro.semantics.interp  # noqa: F401
from repro.check import CHECK_PASSES, check_program
from repro.escape.analyzer import EscapeAnalysis
from repro.escape.report import robust_result_dict, stats_dict
from repro.lang.errors import NmlError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.obs import context as obs_context
from repro.obs import tracer as obs
from repro.obs.context import TraceContext
from repro.obs.flight import FlightRecorder, dump_dir_from_env, recorder
from repro.obs.metrics import MetricsRegistry
from repro.options import COLLECTORS
from repro.opt.driver import harden_optimize
from repro.query import AnalysisSession
from repro.robust import faults
from repro.robust.budget import AnalysisBudget
from repro.robust.resilience import CircuitBreaker
from repro.store import AnalysisStore

__all__ = ["AnalysisService", "make_server", "serve"]

#: Endpoints the service answers (POST).
ENDPOINTS = ("analyze", "check", "optimize")

#: Refuse absurd request bodies before parsing them.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: How long a coalesced follower waits for its leader before giving up
#: (generous: the leader itself is deadline-bounded).
COALESCE_WAIT_S = 120.0


def _field_error(payload: dict) -> "str | None":
    """What is wrong with the request's ``d``, ``deadline_ms``, ``passes``,
    ``function`` or ``gc``, if anything.  Checked before any work runs, so
    a malformed field is answered 400 and never charges the circuit
    breaker."""
    d = payload.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int) or d < 0):
        return f'"d" must be a non-negative integer, not {d!r}'
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float))
    ):
        return f'"deadline_ms" must be a number, not {deadline_ms!r}'
    passes = payload.get("passes")
    if passes is not None and not (
        isinstance(passes, list)
        and all(isinstance(name, str) and name in CHECK_PASSES for name in passes)
    ):
        return f'"passes" must be a list of {", ".join(CHECK_PASSES)}, not {passes!r}'
    function = payload.get("function")
    if function is not None and not isinstance(function, str):
        return f'"function" must be a string, not {function!r}'
    collector = payload.get("gc")
    if collector is not None and collector not in COLLECTORS:
        return f'"gc" must be one of {", ".join(COLLECTORS)}, not {collector!r}'
    return None


def request_digest(endpoint: str, payload: dict) -> str:
    """The coalescing/breaker key: a content hash of the endpoint plus the
    canonicalized payload, so identical questions share one execution."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{endpoint}\n{canon}".encode("utf-8")).hexdigest()


class _InFlight:
    """The leader's slot one digest's followers wait on."""

    __slots__ = ("event", "status", "doc")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status = 500
        self.doc: dict = {"ok": False, "error": "leader never answered"}


class AnalysisService:
    """The transport-independent request engine behind the daemon.

    Owns the shared store, the metrics registry, the circuit breaker
    (one circuit per request digest that failed), and the in-flight
    coalescing table.  :meth:`handle` is thread-safe — the HTTP layer
    calls it from one thread per connection.
    """

    def __init__(
        self,
        store_root: "str | None" = None,
        default_deadline_ms: "float | None" = None,
        breaker: CircuitBreaker | None = None,
        metrics: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
        collector: "str | None" = None,
    ):
        self.store = AnalysisStore(store_root) if store_root else None
        self.default_deadline_ms = default_deadline_ms
        #: default collector for validated optimize requests (requests may
        #: override via their ``gc`` field)
        if collector is not None and collector not in COLLECTORS:
            raise ValueError(
                f"unknown collector {collector!r}; expected one of "
                f"{', '.join(COLLECTORS)}"
            )
        self.collector = collector
        self.metrics = metrics or MetricsRegistry()
        #: The daemon's black box (always on; ``/debug/flight`` reads it).
        self.flight = flight or FlightRecorder(
            dump_dir=dump_dir_from_env(), label="serve-flight"
        )
        # Retries live client-side; the daemon only stops re-running a
        # request that keeps failing.
        self.breaker = breaker or CircuitBreaker(failure_threshold=3, cooldown_s=5.0)
        self._inflight: dict[str, _InFlight] = {}
        self._lock = threading.Lock()
        self.started_at = time.time()

    # -- the front door ------------------------------------------------------

    def handle(
        self, endpoint: str, payload: dict, traceparent: "str | None" = None
    ) -> tuple[int, dict]:
        """Answer one request: ``(http_status, response_doc)``.  Never
        raises — the always-answer invariant starts here.

        ``traceparent`` (the raw header value, if any) joins the caller's
        trace as a child hop; otherwise a fresh trace is minted.  The
        response echoes the request's ``trace_id`` either way.
        """
        started = time.perf_counter()
        caller = TraceContext.from_traceparent(traceparent or "")
        ctx = caller.child() if caller is not None else TraceContext.mint()
        with obs_context.attach(ctx):
            key = request_digest(endpoint, payload)
            with self._lock:
                leader = key not in self._inflight
                if leader:
                    self._inflight[key] = _InFlight()
                entry = self._inflight[key]
            if not leader:
                entry.event.wait(COALESCE_WAIT_S)
                doc = dict(entry.doc)
                doc["coalesced"] = True
                doc["trace_id"] = ctx.trace_id
                self._note(endpoint, entry.status, doc, started, coalesced=True)
                return entry.status, doc
            try:
                status, doc = self._execute(endpoint, payload, key)
            except Exception as error:  # the backstop: still a JSON answer
                status, doc = 500, {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                    "exit_code": 1,
                }
                self.breaker.record_failure(key)
            doc["trace_id"] = ctx.trace_id
            entry.status, entry.doc = status, doc
            with self._lock:
                self._inflight.pop(key, None)
            entry.event.set()
            self._note(endpoint, status, doc, started, coalesced=False)
            return status, doc

    def _note(
        self, endpoint: str, status: int, doc: dict, started: float, coalesced: bool
    ) -> None:
        degraded = bool(doc.get("degraded"))
        self.metrics.inc("serve.requests", endpoint=endpoint, status=str(status))
        if degraded:
            self.metrics.inc("serve.degraded", endpoint=endpoint)
        if coalesced:
            self.metrics.inc("serve.coalesced", endpoint=endpoint)
        self.metrics.observe(
            "serve.latency_s", time.perf_counter() - started, endpoint=endpoint
        )
        open_targets = sum(
            1 for state in self.breaker.snapshot().values() if state == "open"
        )
        self.metrics.set_gauge("serve.circuit_open_targets", open_targets)
        obs.emit(
            "serve_request",
            endpoint=endpoint,
            status=status,
            degraded=degraded,
            coalesced=coalesced,
        )

    # -- execution -----------------------------------------------------------

    def _deadline_s(self, payload: dict) -> "float | None":
        deadline_ms = payload.get("deadline_ms", self.default_deadline_ms)
        return deadline_ms / 1000.0 if deadline_ms is not None else None

    def _execute(self, endpoint: str, payload: dict, key: str) -> tuple[int, dict]:
        if endpoint not in ENDPOINTS:
            return 404, {"ok": False, "error": f"unknown endpoint {endpoint!r}"}
        if not isinstance(payload, dict) or not isinstance(payload.get("source"), str):
            return 400, {
                "ok": False,
                "error": 'request body must be a JSON object with a "source" string',
                "exit_code": 1,
            }
        error = _field_error(payload)
        if error is not None:
            return 400, {"ok": False, "error": error, "exit_code": 1}
        if not self.breaker.allow(key):
            # Known-bad target: the sound immediate answer, not a worker.
            return 200, {
                "ok": True,
                "degraded": True,
                "exit_code": 3,
                "circuit": "open",
                "results": [],
                "reason": "circuit-open",
            }
        faults.check_stage("serve")
        try:
            program = parse_program(payload["source"])
            handler = getattr(self, f"_do_{endpoint}")
            status, doc = handler(program, payload)
        except NmlError as error:
            # Unparseable/untypeable: no W^τ exists, a structured 400 is
            # the only sound answer.  Deterministic, so no breaker charge.
            return 400, {
                "ok": False,
                "error": error.format(),
                "exit_code": 1,
            }
        self.breaker.record_success(key)
        return status, doc

    def _do_analyze(self, program, payload: dict) -> tuple[int, dict]:
        analysis = EscapeAnalysis(
            program,
            d=payload.get("d"),
            store=self.store,
            budget=AnalysisBudget(deadline_s=self._deadline_s(payload)),
        )
        names = (
            [payload["function"]]
            if payload.get("function")
            else list(program.binding_names())
        )
        results = []
        degraded = False
        for name in names:
            try:
                answers = analysis.global_all(name)
            except NmlError as error:
                results.append({"function": name, "error": error.message})
                continue
            for result in answers:
                results.append(robust_result_dict(result))
                degraded = degraded or result.degraded
        return 200, {
            "ok": True,
            "degraded": degraded,
            "exit_code": 3 if degraded else 0,
            "engine": "worklist",
            "results": results,
            "stats": stats_dict(analysis.stats),
        }

    def _do_check(self, program, payload: dict) -> tuple[int, dict]:
        passes = payload.get("passes") or None
        report = check_program(program, passes=passes, path=payload.get("path", "<serve>"))
        doc = report.to_json()
        findings = doc["counts"]["error"] + len(doc["pass_errors"])
        doc.update(
            ok=findings == 0,
            degraded=False,
            exit_code=4 if findings else 0,
        )
        return 200, doc

    def _do_optimize(self, program, payload: dict) -> tuple[int, dict]:
        outcome = harden_optimize(
            program,
            budget=AnalysisBudget(deadline_s=self._deadline_s(payload)),
            validate=bool(payload.get("validate")),
            collector=payload.get("gc", self.collector),
            session=AnalysisSession(program, store=self.store),
        )
        degraded = outcome.degraded
        return 200, {
            "ok": True,
            "degraded": degraded,
            "exit_code": 3 if degraded else 0,
            "applied": list(outcome.applied),
            "degradations": [
                {"reason": d.reason, "stage": d.stage} for d in outcome.degradations
            ],
            "program": pretty_program(outcome.program),
        }

    # -- scrape --------------------------------------------------------------

    def metrics_text(self) -> str:
        """The registry (plus store counters and uptime) as one
        ``name{label=value} value`` line per metric."""
        if self.store is not None:
            for name, value in self.store.counters().items():
                self.metrics.set_gauge(f"serve.{name}", value)
        self.metrics.set_gauge("serve.uptime_s", round(time.time() - self.started_at, 3))
        lines = [
            f"{key} {value}" for key, value in self.metrics.snapshot().items()
        ]
        return "\n".join(lines) + "\n"

    def flight_doc(self) -> dict:
        """The black box as JSON (``GET /debug/flight``): recorder stats
        plus the captured window as a validated dump artifact."""
        return {
            "ok": True,
            "captured": len(self.flight.snapshot()),
            "total": self.flight.total,
            "triggers": self.flight.triggers,
            "dumps": [str(path) for path in self.flight.dumps],
            "events": self.flight.dump_events("debug-endpoint"),
        }


# -- the HTTP layer ----------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    service: AnalysisService  # injected by make_server
    quiet = True

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket (set by the stdlib's
    # ``StreamRequestHandler.setup``).  A response leaves in two writes,
    # headers then body; with Nagle's algorithm on, the body waits for the
    # client's delayed ACK of the headers (40 ms on Linux) on every
    # keep-alive request.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debugging aid
            sys.stderr.write("%s - %s\n" % (self.address_string(), format % args))

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, doc: dict) -> None:
        self._respond(
            status,
            (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"),
            "application/json",
        )

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/metrics":
            self._respond(
                200, self.service.metrics_text().encode("utf-8"), "text/plain"
            )
        elif self.path == "/healthz":
            self._respond_json(200, {"ok": True})
        elif self.path == "/debug/flight":
            self._respond_json(200, self.service.flight_doc())
        else:
            self._respond_json(404, {"ok": False, "error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        endpoint = self.path.lstrip("/")
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length > MAX_BODY_BYTES:
                self._respond_json(
                    413, {"ok": False, "error": "request body too large"}
                )
                return
            raw = self.rfile.read(length)
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as error:
            self._respond_json(
                400, {"ok": False, "error": f"bad JSON body: {error}", "exit_code": 1}
            )
            return
        status, doc = self.service.handle(
            endpoint, payload, traceparent=self.headers.get("traceparent")
        )
        self._respond_json(status, doc)


def make_server(
    host: str,
    port: int,
    service: AnalysisService,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server bound to ``host:port`` (pass
    port 0 to let the OS pick; read ``server.server_address``)."""
    handler = type("BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8100,
    store_root: "str | None" = None,
    default_deadline_ms: "float | None" = None,
    quiet: bool = True,
    ready_stream=None,
    collector: "str | None" = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns 0 on graceful exit.

    Prints one ``listening on http://host:port`` line (to ``ready_stream``,
    default stderr) once the socket is bound, so wrappers can wait for
    readiness, and a shutdown line after the last request drains.
    """
    from contextlib import ExitStack

    stream = ready_stream or sys.stderr
    # The process's recorder when one is installed (the CLI installs one
    # around every command), so the daemon keeps one black box, not two.
    service = AnalysisService(
        store_root=store_root,
        default_deadline_ms=default_deadline_ms,
        flight=recorder(),
        collector=collector,
    )
    server = make_server(host, port, service, quiet=quiet)
    bound_host, bound_port = server.server_address[:2]

    def _shutdown(signum, frame) -> None:
        # serve_forever blocks this thread; shutdown() must come from
        # another one, and then joins the poll loop gracefully.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _shutdown) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"repro serve: listening on http://{bound_host}:{bound_port}", file=stream, flush=True)
    with ExitStack() as stack:
        # Always-on flight recording: request/degradation events from
        # every handler thread land in the service's bounded ring, so a
        # crash-landing daemon leaves a black box.  If the CLI already
        # activated a tracer (e.g. --trace), join it instead of replacing,
        # unless the recorder already is one of its sinks.
        active = obs.tracing()
        if active is not None:
            if service.flight not in active.sinks:
                active.sinks.append(service.flight)
                stack.callback(active.sinks.remove, service.flight)
        else:
            stack.enter_context(obs.activate(obs.Tracer(sinks=[service.flight])))
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            print("repro serve: shut down cleanly", file=stream, flush=True)
    return 0

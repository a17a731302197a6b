"""``repro serve``: the always-answer daemon.

Service-level tests drive :class:`~repro.serve.AnalysisService.handle`
directly (every branch of the degraded-answer contract); HTTP-level tests
bind a real :func:`~repro.serve.make_server` on an ephemeral port and go
through the wire, including the graceful-SIGTERM path of
:func:`~repro.serve.serve` itself.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.check import check_program
from repro.lang.parser import parse_program
from repro.lang.prelude import prelude_source
from repro.obs import RingBufferSink, Tracer, activate
from repro.obs.events import validate_trace
from repro.robust import faults
from repro.robust.faults import FaultPlan, StageFault
from repro.robust.resilience import CircuitBreaker
from repro.serve import (
    AnalysisService,
    _InFlight,
    make_server,
    request_digest,
    serve,
)

ROOT = Path(__file__).resolve().parents[1]
APPEND = prelude_source(["append"], "append [1, 2] [3]")
REV = prelude_source(["append", "rev"], "rev [1, 2, 3]")


@pytest.fixture
def service(tmp_path):
    return AnalysisService(
        store_root=str(tmp_path / "store"), default_deadline_ms=5000.0
    )


# ---------------------------------------------------------------------------
# the service: answers
# ---------------------------------------------------------------------------


def test_analyze_exact(service):
    status, doc = service.handle("analyze", {"source": APPEND})
    assert status == 200 and doc["ok"] and not doc["degraded"]
    assert doc["exit_code"] == 0 and doc["results"]
    assert all("result" in r or "error" in r for r in doc["results"])
    assert "stats" in doc


def test_analyze_function_filter(service):
    status, doc = service.handle("analyze", {"source": REV, "function": "rev"})
    assert status == 200
    assert {r["function"] for r in doc["results"]} == {"rev"}


def test_analyze_starved_deadline_degrades_not_fails(service):
    status, doc = service.handle(
        "analyze", {"source": APPEND, "deadline_ms": 0.0001}
    )
    assert status == 200 and doc["ok"]
    assert doc["degraded"] and doc["exit_code"] == 3
    assert any(r.get("degraded") for r in doc["results"])
    reasons = {
        r["degradation"]["reason"] for r in doc["results"] if r.get("degraded")
    }
    assert "deadline" in "".join(reasons)


def test_analyze_refuses_a_value_binding_as_the_exact_analysis_does(service):
    # Refused before the query runs, so a starved deadline words it the same.
    source = "xs = [1, 2]; id y = y; id xs"
    for extra in ({}, {"deadline_ms": 0}):
        status, doc = service.handle("analyze", {"source": source, **extra})
        assert status == 200
        assert doc["results"][0] == {
            "function": "xs",
            "error": "xs takes no arguments (type int list)",
        }


def test_check_clean_program(service):
    status, doc = service.handle("check", {"source": APPEND})
    assert status == 200 and doc["ok"] and doc["exit_code"] == 0
    assert doc["counts"]["error"] == 0


def test_optimize_returns_auditable_program(service):
    status, doc = service.handle("optimize", {"source": APPEND})
    assert status == 200 and doc["ok"]
    assert any("reuse" in step for step in doc["applied"])
    audited = check_program(parse_program(doc["program"]), passes=["audit"])
    assert audited.counts()["error"] == 0


def test_optimize_starved_deadline_returns_original_program(service):
    status, doc = service.handle(
        "optimize", {"source": APPEND, "deadline_ms": 0.0001}
    )
    assert status == 200 and doc["ok"] and doc["degraded"]
    assert doc["exit_code"] == 3 and doc["degradations"]
    # still a parseable, auditable program — degraded means less optimized,
    # never broken
    assert check_program(
        parse_program(doc["program"]), passes=["audit"]
    ).counts()["error"] == 0


# ---------------------------------------------------------------------------
# the service: refusals (still structured answers)
# ---------------------------------------------------------------------------


def test_unknown_endpoint_is_404(service):
    status, doc = service.handle("bogus", {"source": APPEND})
    assert status == 404 and not doc["ok"]


def test_missing_source_is_400(service):
    status, doc = service.handle("analyze", {})
    assert status == 400 and not doc["ok"] and doc["exit_code"] == 1


def test_parse_error_is_400_with_formatted_error(service):
    status, doc = service.handle("analyze", {"source": "letrec ( in 3"})
    assert status == 400 and not doc["ok"]
    assert "expected" in doc["error"] or "parse" in doc["error"].lower()


@pytest.mark.parametrize(
    "endpoint, fields",
    [
        ("analyze", {"d": "abc"}),
        ("analyze", {"d": -1}),
        ("analyze", {"d": True}),
        ("analyze", {"deadline_ms": "x"}),
        ("optimize", {"deadline_ms": "x"}),
        ("check", {"passes": "lint"}),
        ("check", {"passes": ["lint", "bogus"]}),
        ("analyze", {"function": ["rev"]}),
        ("analyze", {"function": 3}),
        ("optimize", {"gc": "bogus"}),
        ("optimize", {"gc": ["mark-sweep"]}),
    ],
    ids=lambda value: value if isinstance(value, str) else repr(value),
)
def test_malformed_field_is_400_and_never_charges_the_breaker(
    service, endpoint, fields
):
    malformed = {"source": APPEND, **fields}
    for _ in range(4):  # one past the breaker threshold of 3
        status, doc = service.handle(endpoint, malformed)
        assert status == 400 and not doc["ok"] and doc["exit_code"] == 1
    status, doc = service.handle(endpoint, {"source": APPEND})
    assert status == 200 and "circuit" not in doc


def test_malformed_field_is_answered_before_the_source_is_parsed(service):
    status, doc = service.handle(
        "optimize", {"source": "letrec ( in 3", "gc": "bogus"}
    )
    assert status == 400 and doc["exit_code"] == 1
    assert doc["error"].startswith('"gc" must be one of')


def test_well_formed_fields_answer_exactly(service):
    status, doc = service.handle(
        "analyze", {"source": APPEND, "d": 2, "deadline_ms": 5000}
    )
    assert status == 200 and not doc["degraded"]
    status, doc = service.handle("check", {"source": APPEND, "passes": ["lint"]})
    assert status == 200 and doc["ok"]


def test_engine_key_is_ignored(service):
    status, doc = service.handle("analyze", {"source": APPEND, "engine": "legacy"})
    assert status == 200 and not doc["degraded"]
    assert doc["engine"] == "worklist"


def test_injected_fault_is_500_with_json_body(service):
    with faults.inject(FaultPlan(stage_faults=(StageFault("serve", at=1),))):
        status, doc = service.handle("analyze", {"source": APPEND})
    assert status == 500 and not doc["ok"] and "error" in doc


# ---------------------------------------------------------------------------
# the service: breaker and coalescing
# ---------------------------------------------------------------------------


def test_successful_requests_leave_no_circuit(service):
    # A client that sends a new source per keystroke must not grow the
    # breaker: only a target that failed gets a circuit.
    for i in range(300):
        source = prelude_source(["append"], f"append [{i}] [3]")
        status, _ = service.handle("analyze", {"source": source})
        assert status == 200
    assert service.breaker.snapshot() == {}


def test_breaker_short_circuits_failing_digest_to_degraded():
    service = AnalysisService(breaker=CircuitBreaker(failure_threshold=2))
    plan = FaultPlan(
        stage_faults=(StageFault("serve", at=1), StageFault("serve", at=2))
    )
    with faults.inject(plan):
        for _ in range(2):
            status, doc = service.handle("analyze", {"source": APPEND})
            assert status == 500
    # circuit is open for this digest: immediate sound degraded answer,
    # no execution at all (no fault left to fire anyway)
    status, doc = service.handle("analyze", {"source": APPEND})
    assert status == 200 and doc["ok"] and doc["degraded"]
    assert doc["exit_code"] == 3 and doc["circuit"] == "open"
    # a different question is a different target: unaffected
    status, doc = service.handle("analyze", {"source": REV})
    assert status == 200 and not doc.get("circuit")


def test_followers_coalesce_onto_the_leader(service):
    payload = {"source": APPEND}
    key = request_digest("analyze", payload)
    entry = _InFlight()
    service._inflight[key] = entry  # a leader is mid-flight

    follower: dict = {}

    def follow():
        follower["status"], follower["doc"] = service.handle("analyze", payload)

    thread = threading.Thread(target=follow)
    thread.start()
    thread.join(0.2)
    assert thread.is_alive()  # parked on the leader's event
    entry.status, entry.doc = 200, {"ok": True, "degraded": False, "exit_code": 0}
    del service._inflight[key]
    entry.event.set()
    thread.join(5.0)
    assert follower["status"] == 200
    assert follower["doc"]["coalesced"] is True and follower["doc"]["ok"]
    # the leader's stored doc was copied, not mutated
    assert "coalesced" not in entry.doc


def test_concurrent_requests_share_the_store_soundly(service):
    # /analyze and /optimize read and write one store from every handler
    # thread; whatever interleaving, each answer equals a store-less one.
    sources = [
        prelude_source(["append"], f"append [{i}, 2] [3]") for i in range(3)
    ] + [REV]
    reference = AnalysisService()
    asked = [(e, s) for e in ("analyze", "optimize") for s in sources]

    def answer(answering, endpoint, source):
        status, doc = answering.handle(endpoint, {"source": source})
        return status, doc.get("results"), doc.get("program"), doc.get("applied")

    expected = {(e, s): answer(reference, e, s) for e, s in asked}
    got: list = []

    def client(offset):
        for k in range(len(asked)):
            endpoint, source = asked[(k + offset) % len(asked)]
            got.append(((endpoint, source), answer(service, endpoint, source)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 6 * len(asked)
    for key, value in got:
        assert value == expected[key], key


def test_leader_cleans_up_inflight_table(service):
    service.handle("analyze", {"source": APPEND})
    assert service._inflight == {}


def test_requests_emit_schema_valid_events_and_metrics(service):
    ring = RingBufferSink(capacity=None)
    with activate(Tracer(sinks=[ring])):
        service.handle("analyze", {"source": APPEND})
        service.handle("bogus", {"source": APPEND})
    requests = [e for e in ring.events if e["type"] == "serve_request"]
    assert [(e["endpoint"], e["status"]) for e in requests] == [
        ("analyze", 200),
        ("bogus", 404),
    ]
    validate_trace(ring.events)
    text = service.metrics_text()
    assert 'serve.requests{endpoint=analyze,status=200} 1' in text
    assert "serve.uptime_s" in text
    assert "serve.store_hits" in text  # store counters fold into the scrape


# ---------------------------------------------------------------------------
# the service: trace context, flight recorder, latency percentiles
# ---------------------------------------------------------------------------


def test_every_response_echoes_a_trace_id(service):
    status, doc = service.handle("analyze", {"source": APPEND})
    assert status == 200
    assert len(doc["trace_id"]) == 32
    # A second request is a different causal chain.
    _, again = service.handle("analyze", {"source": REV})
    assert again["trace_id"] != doc["trace_id"]


def test_traceparent_header_joins_the_callers_trace(service):
    from repro.obs.context import TraceContext

    caller = TraceContext.mint()
    status, doc = service.handle(
        "analyze", {"source": APPEND}, traceparent=caller.to_traceparent()
    )
    assert status == 200
    assert doc["trace_id"] == caller.trace_id


def test_malformed_traceparent_mints_a_fresh_trace(service):
    status, doc = service.handle(
        "analyze", {"source": APPEND}, traceparent="00-zzz-bad-header"
    )
    assert status == 200
    assert len(doc["trace_id"]) == 32


def test_request_events_are_stamped_with_the_request_trace(service):
    ring = RingBufferSink(capacity=None)
    with activate(Tracer(sinks=[ring])):
        _, doc = service.handle("analyze", {"source": APPEND})
    stamped = [e for e in ring.events if e.get("trace_id") == doc["trace_id"]]
    assert stamped
    assert {e["type"] for e in stamped} >= {"serve_request"}


def test_flight_doc_snapshots_a_validated_black_box(service):
    with activate(Tracer(sinks=[service.flight])):
        service.handle("analyze", {"source": APPEND, "deadline_ms": 0.0001})
    doc = service.flight_doc()
    assert doc["ok"] and doc["captured"] > 0
    assert doc["triggers"] >= 1  # the starved deadline degraded
    validate_trace(doc["events"])
    assert doc["events"][0]["type"] == "flight_dump"


def test_metrics_expose_latency_percentiles(service):
    for _ in range(3):
        service.handle("analyze", {"source": APPEND})
    text = service.metrics_text()
    for quantile in ("p50", "p95", "p99"):
        assert f"serve.latency_s.{quantile}{{endpoint=analyze}}" in text
    # The scrape is byte-stable: keys arrive sorted.
    keys = [line.split(" ")[0] for line in text.splitlines() if " " in line]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# over the wire
# ---------------------------------------------------------------------------


@pytest.fixture
def http_server(service):
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(5.0)


def _post(base, endpoint, body: bytes):
    request = urllib.request.Request(
        f"{base}/{endpoint}", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_keepalive_round_trip_is_not_held_back_by_nagle(service):
    # A response leaves in two writes (headers, then body).  With Nagle's
    # algorithm on, the body waits for the client's delayed ACK, about
    # 40 ms per keep-alive request on Linux; with TCP_NODELAY a /healthz
    # round trip is well under a millisecond.
    server = make_server("127.0.0.1", 0, service)
    nodelay = []

    class Recording(server.RequestHandlerClass):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    server.RequestHandlerClass = Recording
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        round_trips = []
        for _ in range(20):
            started = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]
            round_trips.append(time.perf_counter() - started)
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(5.0)
    assert len(nodelay) == 1 and nodelay[0]  # one connection, kept alive
    assert statistics.median(round_trips) < 0.010


def test_http_analyze_roundtrip(http_server):
    status, doc = _post(http_server, "analyze", json.dumps({"source": APPEND}).encode())
    assert status == 200 and doc["ok"] and doc["exit_code"] == 0


def test_http_bad_json_body_is_400(http_server):
    status, doc = _post(http_server, "analyze", b"{not json")
    assert status == 400 and "bad JSON body" in doc["error"]


def test_http_healthz_metrics_and_unknown_route(http_server):
    with urllib.request.urlopen(f"{http_server}/healthz", timeout=30) as response:
        assert response.status == 200 and json.loads(response.read())["ok"]
    with urllib.request.urlopen(f"{http_server}/metrics", timeout=30) as response:
        assert response.status == 200
        assert b"serve.uptime_s" in response.read()
    try:
        urllib.request.urlopen(f"{http_server}/nope", timeout=30)
        assert False, "expected 404"
    except urllib.error.HTTPError as error:
        assert error.code == 404


def test_http_traceparent_and_debug_flight(http_server):
    from repro.obs.context import TraceContext

    caller = TraceContext.mint()
    request = urllib.request.Request(
        f"{http_server}/analyze",
        data=json.dumps({"source": APPEND}).encode(),
        headers={
            "Content-Type": "application/json",
            "traceparent": caller.to_traceparent(),
        },
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        doc = json.loads(response.read())
    assert doc["trace_id"] == caller.trace_id

    with urllib.request.urlopen(f"{http_server}/debug/flight", timeout=30) as response:
        assert response.status == 200
        flight = json.loads(response.read())
    assert flight["ok"]
    validate_trace(flight["events"])


def test_serve_shuts_down_gracefully_on_sigterm(tmp_path):
    stream = io.StringIO()
    timer = threading.Timer(0.5, os.kill, [os.getpid(), signal.SIGTERM])
    timer.start()
    try:
        code = serve(
            host="127.0.0.1",
            port=0,
            store_root=str(tmp_path / "store"),
            ready_stream=stream,
        )
    finally:
        timer.cancel()
    assert code == 0
    output = stream.getvalue()
    assert "listening on http://127.0.0.1:" in output
    assert "shut down cleanly" in output
    # the previous signal disposition is restored
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


def test_cli_daemon_records_into_the_cli_flight_recorder(tmp_path):
    """``repro serve`` keeps one black box: the recorder the CLI installed.
    Each degradation dumps once, and ``/debug/flight`` reports those dumps."""
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_FLIGHT_DIR=str(tmp_path)
    )
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT,
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = daemon.stderr.readline()
        assert "listening on" in line, line
        base = line.split("listening on ", 1)[1].strip()
        source = (ROOT / "examples" / "partition_sort.nml").read_text()
        body = json.dumps({"source": source, "deadline_ms": 0}).encode()
        status, doc = _post(base, "analyze", body)
        assert status == 200 and doc["degraded"]
        with urllib.request.urlopen(f"{base}/debug/flight", timeout=30) as response:
            flight = json.loads(response.read())
    finally:
        daemon.terminate()
        daemon.communicate(timeout=30)
    assert daemon.returncode == 0
    dumps = sorted(path.name for path in tmp_path.glob("*.jsonl"))
    # append, split and ps each degrade once
    assert len(dumps) == flight["triggers"] == 3, dumps
    assert sorted(Path(path).name for path in flight["dumps"]) == dumps
    assert all(name.startswith("flight-") for name in dumps), dumps

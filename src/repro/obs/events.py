"""The typed event vocabulary of the observability layer.

Every event the :class:`~repro.obs.tracer.Tracer` emits is a flat JSON
object with a common envelope — ``seq`` (monotonic, from 0), ``ts``
(seconds since the tracer started), ``type`` — plus the payload fields
listed in :data:`EVENT_FIELDS`.  The vocabulary covers the whole pipeline:

* **analysis** — ``solve`` (cache hit/miss), ``scc_solve_start`` /
  ``scc_solve_finish``, ``fixpoint_iteration`` (per-binding lattice
  values, the raw material of the Appendix A.1 tables),
  ``fixpoint_converged`` / ``fixpoint_widened``, ``escape_test``,
  ``query_stats``;
* **analysis store** — ``store_hit`` / ``store_miss`` / ``store_write``
  (the on-disk SCC tier of :mod:`repro.store`, keyed by provenance
  digest), ``store_reap`` (stale temp files swept at store open);
* **hardened engine** — ``budget_charge``, ``degradation``;
* **resilience layer** — ``retry`` (a failed file back on the queue),
  ``timeout`` (an attempt preempted at its deadline), ``quarantine`` (a
  poison input excluded after exhausting attempts), ``circuit_state`` (a
  per-target breaker transition), ``worker_restart`` (the batch
  supervisor replacing a crashed or hung worker);
* **service** — ``serve_request`` (one daemon request: endpoint, HTTP
  status, degraded/coalesced flags);
* **optimizer** — ``decision``, ``transform_applied``,
  ``transform_skipped``;
* **runtime** — ``cell_alloc``, ``cell_reuse``, ``cell_reclaim``,
  ``region_push``, ``region_pop``, ``gc_run``;
* **structure** — ``span_start`` / ``span_end`` (hierarchical timing).

The schema is deliberately validation-friendly: :func:`validate_event`
checks one decoded event, :func:`validate_trace` a whole JSONL stream —
the check the CI trace-smoke step runs on every exported trace.
"""

from __future__ import annotations

from typing import Iterable


class TraceSchemaError(ValueError):
    """A trace event does not conform to the event schema."""


#: Envelope fields every event carries.
ENVELOPE_FIELDS = ("seq", "ts", "type")

#: Required payload fields per event type.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    # structure
    "span_start": ("id", "name"),
    "span_end": ("id", "name", "dur_s", "self_s"),
    # flight recorder (the synthetic header of a black-box dump)
    "flight_dump": ("reason", "captured", "total"),
    # query engine / fixpoint
    "solve": ("cache",),
    "scc_solve_start": ("names",),
    "scc_solve_finish": ("names", "cache", "iterations"),
    "fixpoint_iteration": ("iteration", "values"),
    "fixpoint_converged": ("names", "iterations"),
    "fixpoint_widened": ("names", "cap"),
    "escape_test": ("kind", "function", "param", "result"),
    "query_stats": (
        "solve_hits",
        "solve_misses",
        "scc_hits",
        "scc_misses",
        "iterations",
        "eval_steps",
        # store_hits / store_misses / store_writes / worklist_evals ride
        # along as optional extras so older traces keep validating.
    ),
    # IR lowering + worklist engine
    "ir_lower": ("name", "instructions"),
    "worklist_push": ("name",),
    "worklist_pop": ("name",),
    "transfer_eval": ("block", "index", "op", "count"),
    # analysis store (on-disk SCC tier)
    "store_hit": ("digest",),
    "store_miss": ("digest",),
    "store_write": ("digest",),
    "store_reap": ("count",),
    # hardened engine
    "budget_charge": ("wall_s", "eval_steps", "iterations"),
    "degradation": ("reason", "stage"),
    # resilience layer (retry/timeout/quarantine/circuit, supervised workers)
    "retry": ("key", "attempt"),
    "timeout": ("key", "deadline_s"),
    "quarantine": ("key", "attempts", "reason"),
    "circuit_state": ("target", "state"),
    "worker_restart": ("key", "attempt", "cause"),
    # service (repro serve)
    "serve_request": ("endpoint", "status", "degraded", "coalesced"),
    # optimizer
    "decision": ("kind", "function", "param"),
    "transform_applied": ("kind", "detail"),
    "transform_skipped": ("kind", "reason"),
    # static checker (repro.check)
    "check_rule_fired": ("rule", "severity", "pass"),
    # instrumented runtime
    "cell_alloc": ("cell", "kind"),
    "cell_reuse": ("cell",),
    "cell_reclaim": ("count", "cause"),
    "region_push": ("kind", "label"),
    "region_pop": ("kind", "label", "freed"),
    "gc_run": ("marked", "swept", "live_after"),
}

#: Valid values for the ``cache`` field.
CACHE_OUTCOMES = ("hit", "miss")

#: Valid values for the ``state`` field of ``circuit_state`` events.
CIRCUIT_STATES = ("closed", "open", "half-open")


def validate_event(event: dict) -> None:
    """Check one decoded event against the schema; raise
    :class:`TraceSchemaError` on the first problem."""
    if not isinstance(event, dict):
        raise TraceSchemaError(f"event is not an object: {event!r}")
    for field in ENVELOPE_FIELDS:
        if field not in event:
            raise TraceSchemaError(f"event is missing envelope field {field!r}: {event}")
    etype = event["type"]
    required = EVENT_FIELDS.get(etype)
    if required is None:
        raise TraceSchemaError(f"unknown event type {etype!r}")
    for field in required:
        if field not in event:
            raise TraceSchemaError(f"{etype} event is missing field {field!r}: {event}")
    if "cache" in event and event["cache"] not in CACHE_OUTCOMES:
        raise TraceSchemaError(
            f"cache must be one of {CACHE_OUTCOMES}, got {event['cache']!r}"
        )
    if etype == "circuit_state" and event["state"] not in CIRCUIT_STATES:
        raise TraceSchemaError(
            f"circuit state must be one of {CIRCUIT_STATES}, got {event['state']!r}"
        )


def validate_trace(events: Iterable[dict], lines: "Iterable[int] | None" = None) -> int:
    """Validate a whole event stream (schema + monotonic ``seq``); returns
    the number of events checked.

    A failure names the offending event's index in the stream — and its
    source line when ``lines`` supplies one per event (as
    :func:`validate_trace_file` does for JSONL files) — so a broken trace
    points at the bad record instead of raising a bare schema error.
    """
    count = 0
    previous_seq = -1
    line_of = iter(lines) if lines is not None else None
    for index, event in enumerate(events):
        line = next(line_of, None) if line_of is not None else None
        where = f"event {index}" + (f" (line {line})" if line is not None else "")
        try:
            validate_event(event)
        except TraceSchemaError as error:
            raise TraceSchemaError(f"{where}: {error}") from None
        seq = event["seq"]
        if not isinstance(seq, int) or seq <= previous_seq:
            raise TraceSchemaError(
                f"{where}: seq must increase monotonically: "
                f"{seq!r} after {previous_seq}"
            )
        previous_seq = seq
        count += 1
    return count


def validate_trace_file(path) -> int:
    """Validate a JSONL trace file, reporting the offending event's index
    *and* source line on failure; returns the number of events checked."""
    import json

    events: list[dict] = []
    lines: list[int] = []
    with open(path, encoding="utf-8") as stream:
        for lineno, text in enumerate(stream, start=1):
            if not text.strip():
                continue
            try:
                events.append(json.loads(text))
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"event {len(events)} (line {lineno}): not valid JSON: {error}"
                ) from None
            lines.append(lineno)
    return validate_trace(events, lines)

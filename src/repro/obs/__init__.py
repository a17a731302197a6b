"""``repro.obs`` — unified tracing, metrics, and profiling.

The observation layer every other subsystem emits into:

* :mod:`repro.obs.tracer` — the :class:`Tracer` (hierarchical spans, typed
  events) and the module-level ``emit`` / ``span`` / ``tracing`` API the
  instrumented modules call; **no tracer is active by default**, so every
  instrumentation point is a single ``None`` check when disabled;
* :mod:`repro.obs.events` — the typed event vocabulary and its validator;
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of labelled
  counters/gauges/histograms that subsumes the legacy counter pots;
* :mod:`repro.obs.sinks` — JSONL export, in-memory ring buffer, streaming
  metrics aggregation;
* :mod:`repro.obs.profile` — profile reports and trace *replay* (the
  Appendix A.1 iteration table and the cache accounting, recomputed from a
  trace file without re-running the analysis).

Typical use::

    from repro import obs
    from repro.obs.sinks import RingBufferSink

    ring = RingBufferSink()  # bounded: keeps the last 65 536 events
    with obs.activate(obs.Tracer(sinks=[ring])):
        EscapeAnalysis(program).global_test("append", 1)
    table = obs.profile.iteration_table(ring.events)

``RingBufferSink()`` keeps the *last* ``DEFAULT_RING_CAPACITY`` events and
an exact ``total``; pass ``capacity=None`` only when a run is known to be
short, as an unbounded buffer grows with the trace.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.obs.tracer": ("Tracer", "Span", "activate", "emit", "span", "tracing"),
        "repro.obs.context": ("TraceContext", "attach", "current", "merge_traces"),
        "repro.obs.flight": ("FlightRecorder",),
        "repro.obs.explain": ("Explanation", "explain_binding", "format_explanation"),
        "repro.obs.metrics": ("MetricsRegistry",),
        "repro.obs.sinks": ("JsonlSink", "MetricsSink", "RingBufferSink", "read_trace"),
        "repro.obs.events": ("validate_event", "validate_trace", "validate_trace_file"),
    },
    modules=("context", "events", "explain", "flight", "metrics", "profile", "sinks"),
)
